// Trainloop: train a small conv -> maxpool network end to end on the
// simulated device. Every tensor operation runs through the simulator's
// instruction streams: the forward convolution (Im2Col -> Cube MMAD), the
// Fig. 7b forward pooling with the argmax mask, the Fig. 7c Col2Im-based
// pooling backward, and the weight gradient (dY^T x im2col(x) with the
// SCU transpose). The host only applies the SGD update and the loss
// derivative, as a framework would.
//
// The loss against a fixed target decreases monotonically — the simulated
// kernels compute real gradients, at simulated-cycle prices the paper's
// variants change by 5x.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/ops"
	"davinci/internal/tensor"
)

func main() {
	const (
		ih, iw = 12, 12
		ch     = 16
		lr     = 0.02
		steps  = 12
	)
	convP := isa.ConvParams{Ih: ih, Iw: iw, Kh: 3, Kw: 3, Sh: 1, Sw: 1, Pt: 1, Pb: 1, Pl: 1, Pr: 1}
	poolP := isa.ConvParams{Ih: ih, Iw: iw, Kh: 2, Kw: 2, Sh: 2, Sw: 2}

	rng := rand.New(rand.NewSource(5))
	core := aicore.New(buffer.Config{}, nil)

	// Compile the four kernels once; the loop replays the cached plans.
	spec := ops.SpecFor(core)
	compile := func(kernel string, d ops.Dims) *ops.Plan {
		pl, err := ops.Compile(kernel, spec, d)
		if err != nil {
			log.Fatal(err)
		}
		return pl
	}
	convD := ops.Dims{P: convP, Co: ch, C: ch}
	convPl := compile("conv2d", convD)
	poolPl := compile("maxpool_fwd_argmax/im2col", ops.Dims{P: poolP})
	poolBwdPl := compile("maxpool_bwd/col2im", ops.Dims{P: poolP})
	dwPl := compile("conv2d_bwd_weights", convD)

	x := tensor.New(1, 1, ih, iw, tensor.C0)
	x.FillRandom(rng, 0.5)
	target := tensor.New(1, 1, ih/2, iw/2, tensor.C0)
	target.FillRandom(rng, 0.5)
	weights := tensor.New(ch, ch, 3, 3)
	weights.FillRandom(rng, 0.1)

	var total int64
	fmt.Printf("training conv3x3 -> maxpool2x2 against a fixed target (lr %g):\n", lr)
	prev := 1e30
	for step := 0; step < steps; step++ {
		// Forward: conv on the Cube, pooling with the saved argmax mask.
		convOuts, st1, err := convPl.Run(core, x, weights)
		if err != nil {
			log.Fatal(err)
		}
		y1 := convOuts[0]
		poolOuts, st2, err := poolPl.Run(core, y1)
		if err != nil {
			log.Fatal(err)
		}
		y2, mask := poolOuts[0], poolOuts[1]

		// Loss layer (host, like a framework): L = mean (y2-t)^2.
		var loss float64
		dy2 := tensor.New(1, 1, ih/2, iw/2, tensor.C0)
		for i := 0; i < y2.Len(); i++ {
			d := fp16.ToFloat64(y2.AtFlat(i)) - fp16.ToFloat64(target.AtFlat(i))
			loss += d * d
			dy2.SetFlat(i, fp16.FromFloat64(2*d/float64(y2.Len())))
		}
		loss /= float64(y2.Len())

		// Backward: Col2Im pooling backward, then the weight gradient.
		bwdOuts, st3, err := poolBwdPl.Run(core, mask, dy2)
		if err != nil {
			log.Fatal(err)
		}
		dy1 := bwdOuts[0]
		dwOuts, st4, err := dwPl.Run(core, dy1, x)
		if err != nil {
			log.Fatal(err)
		}
		dw := dwOuts[0]

		// SGD (host).
		for i := 0; i < weights.Len(); i++ {
			w := fp16.ToFloat64(weights.AtFlat(i)) - lr*fp16.ToFloat64(dw.AtFlat(i))
			weights.SetFlat(i, fp16.FromFloat64(w))
		}

		stepCycles := st1.Cycles + st2.Cycles + st3.Cycles + st4.Cycles
		total += stepCycles
		fmt.Printf("  step %2d: loss %.6f  (%6d sim cycles)\n", step, loss, stepCycles)
		if loss > prev*1.0001 {
			log.Fatalf("loss increased at step %d: %v -> %v", step, prev, loss)
		}
		prev = loss
	}
	fmt.Printf("\nloss decreased monotonically over %d steps; %d total simulated cycles\n", steps, total)
	fmt.Println("forward conv, pooling with argmax, Col2Im backward and dW all ran on the device")
}
