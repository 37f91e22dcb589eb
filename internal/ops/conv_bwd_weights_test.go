package ops

import (
	"math/rand"
	"testing"

	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/ref"
	"davinci/internal/tensor"
)

func TestConvBackwardWeightsMatchesReference(t *testing.T) {
	cases := []struct {
		p     isa.ConvParams
		c, co int
	}{
		{isa.ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}, 16, 16},
		{isa.ConvParams{Ih: 10, Iw: 10, Kh: 3, Kw: 3, Sh: 1, Sw: 1}, 16, 8},
		{isa.ConvParams{Ih: 9, Iw: 9, Kh: 3, Kw: 3, Sh: 2, Sw: 2, Pt: 1, Pb: 1, Pl: 1, Pr: 1}, 20, 16},
		{isa.ConvParams{Ih: 11, Iw: 7, Kh: 2, Kw: 3, Sh: 2, Sw: 1}, 32, 24},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(int64(tc.c*7 + tc.co)))
		oh, ow := tc.p.OutDims()
		co1, c1 := tensor.C1Of(tc.co), tensor.C1Of(tc.c)
		grad := tensor.New(1, co1, oh, ow, tensor.C0)
		x := tensor.New(1, c1, tc.p.Ih, tc.p.Iw, tensor.C0)
		grad.FillRandom(rng, 0.5)
		x.FillRandom(rng, 0.5)

		got, st, err := conv2DBackwardWeights(newTestCore(), grad, x, tc.p, tc.co, tc.c)
		if err != nil {
			t.Fatalf("%+v: %v", tc.p, err)
		}
		want := ref.Conv2DBackwardWeights(grad, x, tc.p, tc.co, tc.c)
		// Band-wise fp32 accumulation can differ from the single-pass
		// reference by association; magnitudes here are O(patches).
		if d := tensor.MaxAbsDiff(got, want); d > 0.25 {
			t.Errorf("%+v co=%d c=%d: max diff %v", tc.p, tc.co, tc.c, d)
		}
		if st.PipeInstrs[isa.PipeCube] == 0 {
			t.Errorf("%+v: dW did not use the Cube unit", tc.p)
		}
		if st.PipeInstrs[isa.PipeMTE1] == 0 {
			t.Errorf("%+v: dW did not use Im2Col/transpose loads", tc.p)
		}
	}
}

// With a one-hot gradient, dW picks out exactly one patch of x.
func TestConvBackwardWeightsOneHot(t *testing.T) {
	p := isa.ConvParams{Ih: 6, Iw: 6, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(1, 1, 6, 6, tensor.C0)
	for i := 0; i < x.Len(); i++ {
		x.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(8))))
	}
	oh, ow := p.OutDims()
	grad := tensor.New(1, 1, oh, ow, tensor.C0)
	grad.Set(fp16.One, 0, 0, 1, 2, 5) // oc=5, patch (1,2)

	dw, _, err := conv2DBackwardWeights(newTestCore(), grad, x, p, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	for ic := 0; ic < 16; ic++ {
		for xk := 0; xk < 2; xk++ {
			for yk := 0; yk < 2; yk++ {
				want := x.At(0, 0, 1*2+xk, 2*2+yk, ic)
				if got := dw.At(5, ic, xk, yk); got != want {
					t.Fatalf("dw[5,%d,%d,%d] = %v, want %v", ic, xk, yk, got.Float32(), want.Float32())
				}
				// Other output channels see zero gradient.
				if got := dw.At(3, ic, xk, yk); got != 0 {
					t.Fatalf("dw[3,...] = %v, want 0", got.Float32())
				}
			}
		}
	}
}

func TestConvBackwardWeightsRejectsBadShapes(t *testing.T) {
	p := isa.ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	core := newTestCore()
	x := tensor.New(1, 1, 8, 8, tensor.C0)
	if _, _, err := conv2DBackwardWeights(core, tensor.New(1, 1, 3, 3, tensor.C0), x, p, 16, 16); err == nil {
		t.Error("bad gradient shape accepted")
	}
	if _, _, err := conv2DBackwardWeights(core, tensor.New(1, 1, 4, 4, tensor.C0), tensor.New(1, 1, 7, 8, tensor.C0), p, 16, 16); err == nil {
		t.Error("bad input shape accepted")
	}
}
