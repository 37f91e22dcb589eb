package ops

import (
	"testing"

	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/ref"
	"davinci/internal/tensor"
)

// TestHeadlineRatios147 pins the calibrated timing model to the paper's
// headline results on the largest InceptionV3 input (147,147,64): speedups
// of 3.2x (forward, Fig. 7a), 5x (forward + argmax, Fig. 7b) and 5.8x
// (backward, Fig. 7c). The simulator is not the authors' testbed, so the
// assertion is a band around each paper value, wide enough to survive
// schedule tweaks but tight enough to catch a broken cost model.
func TestHeadlineRatios147(t *testing.T) {
	p := isa.ConvParams{Ih: 147, Iw: 147, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	in := randTile(42, p)

	ratio := func(slow, fast int64) float64 { return float64(slow) / float64(fast) }
	within := func(name string, got, paper, slack float64) {
		t.Helper()
		if got < paper-slack || got > paper+slack {
			t.Errorf("%s speedup %.2fx outside %.1fx +- %.1fx", name, got, paper, slack)
		}
		t.Logf("%s: measured %.2fx (paper %.1fx)", name, got, paper)
	}

	_, stFwdStd, err := runOne(newTestCore(), "maxpool_fwd/standard", p, in)
	if err != nil {
		t.Fatal(err)
	}
	_, stFwdIm, err := runOne(newTestCore(), "maxpool_fwd/im2col", p, in)
	if err != nil {
		t.Fatal(err)
	}
	within("forward (Fig. 7a)", ratio(stFwdStd.Cycles, stFwdIm.Cycles), 3.2, 1.2)

	_, stArgStd, err := runKernel(newTestCore(), "maxpool_fwd_argmax/standard", p, in)
	if err != nil {
		t.Fatal(err)
	}
	_, stArgIm, err := runKernel(newTestCore(), "maxpool_fwd_argmax/im2col", p, in)
	if err != nil {
		t.Fatal(err)
	}
	within("forward+argmax (Fig. 7b)", ratio(stArgStd.Cycles, stArgIm.Cycles), 5.0, 2.0)

	mask := ref.ArgmaxMask(in, p)
	oh, ow := p.OutDims()
	grad := tensor.New(1, 1, oh, ow, tensor.C0)
	grad.Fill(fp16.One)
	_, stBwdStd, err := runOne(newTestCore(), "maxpool_bwd/standard", p, mask, grad)
	if err != nil {
		t.Fatal(err)
	}
	_, stBwdCi, err := runOne(newTestCore(), "maxpool_bwd/col2im", p, mask, grad)
	if err != nil {
		t.Fatal(err)
	}
	within("backward (Fig. 7c)", ratio(stBwdStd.Cycles, stBwdCi.Cycles), 5.8, 2.0)
}
