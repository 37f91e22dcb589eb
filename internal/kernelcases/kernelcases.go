// Package kernelcases turns the ops kernel catalogue into sweep cases:
// every built-in kernel with a single-tile planner and an input builder,
// so sweeps that want "all kernels on all layers" — the static-bound
// reality check, the accounting-identity test, the benchmark Table I
// sweep, davinci-lint — share one list that cannot drift from the
// catalogue.
package kernelcases

import (
	"errors"
	"math/rand"

	"davinci/internal/buffer"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/ops"
	"davinci/internal/tensor"
	"davinci/internal/trace"
)

// ConvCh is the channel extent the convolution kernels are compiled for
// in sweeps: one C0 slice, so the (1,1,H,W,C0) pooling tile doubles as
// the convolution input.
const ConvCh = tensor.C0

// Case is one built-in kernel: a plan compiler plus an input builder for
// a given layer's parameters.
type Case struct {
	// Name is the catalogue name, e.g. "maxpool_fwd/im2col".
	Name string
	// Kernel is the catalogue entry.
	Kernel *ops.Kernel
	// Plan compiles the kernel for one (1,1,H,W,C0) tile (Dims).
	Plan func(spec ops.Spec, p isa.ConvParams) (*ops.Plan, error)
	// Inputs builds random single-tile inputs for Plan's program.
	Inputs func(rng *rand.Rand, p isa.ConvParams) []*tensor.Tensor
}

// IsCapacitySkip reports whether a planning error means the shape does
// not fit the kernel's on-chip tiling (and a sweep should skip it, like
// the chip-level tiling would) rather than a bug: the error wraps
// ops.ErrCapacity or buffer.ErrNoSpace. Lint and validation errors never
// qualify, whatever their wording.
func IsCapacitySkip(err error) bool {
	return errors.Is(err, ops.ErrCapacity) || errors.Is(err, buffer.ErrNoSpace)
}

// All lists every catalogue kernel, in catalogue order.
func All() []Case {
	var cases []Case
	for _, k := range ops.Kernels() {
		cases = append(cases, Case{
			Name:   k.Name,
			Kernel: k,
			Plan: func(spec ops.Spec, p isa.ConvParams) (*ops.Plan, error) {
				return k.Compile(trace.Ctx{}, spec, Dims(k, p))
			},
			Inputs: func(rng *rand.Rand, p isa.ConvParams) []*tensor.Tensor {
				return Tensors(k, Dims(k, p), 1, 1, func(t *tensor.Tensor) { t.FillRandom(rng, 8) })
			},
		})
	}
	return cases
}

// Dims returns the dims a sweep compiles k for at layer p: the
// convolutions over ConvCh output and input channels.
func Dims(k *ops.Kernel, p isa.ConvParams) ops.Dims { return k.Dims(p, ConvCh, ConvCh) }

// Tensors builds k's whole inputs for d over an n x c1 tile grid (c1
// applies to the kernels tiled by (N, C1)), each filled by fill.
func Tensors(k *ops.Kernel, d ops.Dims, n, c1 int, fill func(*tensor.Tensor)) []*tensor.Tensor {
	ins := make([]*tensor.Tensor, len(k.Inputs))
	for i, in := range k.Inputs {
		shape := in.Shape(d)
		switch in.Tiling {
		case ops.ByNC1:
			shape[0], shape[1] = n, c1
		case ops.ByN:
			shape[0] = n
		}
		ins[i] = tensor.New(shape...)
		fill(ins[i])
	}
	return ins
}

// Ints fills tensors with integers in [0, 4) drawn from rng. Sums and
// products of such values stay exact in binary16 and in the Cube's fp32
// accumulator at the layer sizes the tests use, so the kernels match
// their golden models bit for bit there (TestEveryKernelChipRunAndFallback,
// davinci-sim -verify). Not at every size: avgpool_bwd scales by
// 1/(Kh*Kw), which makes the values inexact, and at k3s2 with S >= 96 its
// band split reorders overlapping window sums, so both its variants
// differ from the golden model by up to 2 ULP (EXPERIMENTS.md, "Known
// deviations").
func Ints(rng *rand.Rand) func(*tensor.Tensor) {
	return func(t *tensor.Tensor) {
		for i := 0; i < t.Len(); i++ {
			t.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(4))))
		}
	}
}
