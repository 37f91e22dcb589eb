package ops

import (
	"math/rand"
	"testing"

	"davinci/internal/isa"
	"davinci/internal/ref"
	"davinci/internal/tensor"
)

func convTolerance(a, b *tensor.Tensor, tol float64, t *testing.T, label string) {
	t.Helper()
	if d := tensor.MaxAbsDiff(a, b); d > tol {
		t.Errorf("%s: max diff %v > %v", label, d, tol)
	}
}

func TestConvMatchesReference(t *testing.T) {
	cases := []struct {
		p     isa.ConvParams
		c, co int
	}{
		{isa.ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}, 16, 16},
		{isa.ConvParams{Ih: 12, Iw: 12, Kh: 3, Kw: 3, Sh: 1, Sw: 1}, 16, 8},
		{isa.ConvParams{Ih: 10, Iw: 10, Kh: 3, Kw: 3, Sh: 2, Sw: 2, Pt: 1, Pb: 1, Pl: 1, Pr: 1}, 32, 20},
		{isa.ConvParams{Ih: 14, Iw: 9, Kh: 2, Kw: 3, Sh: 2, Sw: 3}, 7, 33},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(int64(tc.c + tc.co)))
		in := tensor.New(1, tensor.C1Of(tc.c), tc.p.Ih, tc.p.Iw, tensor.C0)
		in.FillRandom(rng, 1)
		// Zero channel padding beyond c, as a real fractal input has.
		for ch := tc.c; ch < tensor.C1Of(tc.c)*tensor.C0; ch++ {
			for h := 0; h < tc.p.Ih; h++ {
				for w := 0; w < tc.p.Iw; w++ {
					in.Set(0, 0, ch/tensor.C0, h, w, ch%tensor.C0)
				}
			}
		}
		weights := tensor.New(tc.co, tc.c, tc.p.Kh, tc.p.Kw)
		weights.FillRandom(rng, 1)

		got, st, err := conv2D(newTestCore(), in, weights, tc.p)
		if err != nil {
			t.Fatalf("%+v: %v", tc.p, err)
		}
		want := ref.Conv2D(in, weights, tc.p)
		// The Cube accumulates fp32 in a different association order than
		// the reference; one fp16 ULP at magnitude ~Kh*Kw*C is the bound.
		convTolerance(got, want, 0.5, t, "conv")
		if st.PipeInstrs[isa.PipeCube] == 0 {
			t.Error("conv did not use the Cube unit")
		}
		if st.PipeInstrs[isa.PipeMTE1] == 0 {
			t.Error("conv did not use Im2Col loads")
		}
	}
}

func TestConvIdentity(t *testing.T) {
	// 1x1 kernel, identity weight matrix on 16 channels: output == input.
	p := isa.ConvParams{Ih: 6, Iw: 6, Kh: 1, Kw: 1, Sh: 1, Sw: 1}
	rng := rand.New(rand.NewSource(3))
	in := tensor.New(1, 1, 6, 6, tensor.C0)
	in.FillRandom(rng, 2)
	w := tensor.New(16, 16, 1, 1)
	for i := 0; i < 16; i++ {
		w.Set(0x3c00, i, i, 0, 0) // 1.0
	}
	got, _, err := conv2D(newTestCore(), in, w, p)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 6; h++ {
		for wi := 0; wi < 6; wi++ {
			for c0 := 0; c0 < 16; c0++ {
				if got.At(0, 0, h, wi, c0) != in.At(0, 0, h, wi, c0) {
					t.Fatalf("identity conv mismatch at (%d,%d,%d)", h, wi, c0)
				}
			}
		}
	}
}

func TestConvRejectsOversizedWeights(t *testing.T) {
	// K*N fractals beyond L0B capacity must be rejected, not mis-scheduled.
	p := isa.ConvParams{Ih: 8, Iw: 8, Kh: 3, Kw: 3, Sh: 1, Sw: 1}
	in := tensor.New(1, 8, 8, 8, tensor.C0)
	w := tensor.New(256, 128, 3, 3) // 72 K-fractals x 16 N-fractals > 64 KiB
	if _, _, err := conv2D(newTestCore(), in, w, p); err == nil {
		t.Error("oversized weights accepted")
	}
}

func TestPackWeightsFractal(t *testing.T) {
	p := isa.ConvParams{Ih: 4, Iw: 4, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	w := tensor.New(3, 18, 2, 2)
	w.FillSeq()
	f := PackWeightsFractal(w, p)
	if f.Shape[0] != 2*2*2 || f.Shape[1] != 1 {
		t.Fatalf("fractal shape %v", f.Shape)
	}
	// Spot-check: weights[oc=2, ic=17, xk=1, yk=0] lands in fractal
	// k = (17/16)*4 + 1*2 + 0 = 6, row 17%16=1, col 2.
	if f.At(6, 0, 1, 2) != w.At(2, 17, 1, 0) {
		t.Error("weight packing misplaced an element")
	}
	// Column padding beyond Co is zero.
	if f.At(0, 0, 0, 5) != 0 {
		t.Error("Co padding not zero")
	}
}
