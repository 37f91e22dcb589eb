package ops

import (
	"math/rand"
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/ref"
	"davinci/internal/tensor"
)

// paramGrid is the cross-variant correctness grid: kernels, strides,
// padding, odd sizes, and a case small enough to fit one band plus a case
// that forces multi-band scheduling on a shrunken UB.
var paramGrid = []isa.ConvParams{
	{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2},
	{Ih: 12, Iw: 10, Kh: 3, Kw: 3, Sh: 2, Sw: 2},
	{Ih: 9, Iw: 9, Kh: 3, Kw: 3, Sh: 1, Sw: 1},
	{Ih: 9, Iw: 9, Kh: 3, Kw: 3, Sh: 3, Sw: 3},
	{Ih: 13, Iw: 7, Kh: 2, Kw: 3, Sh: 1, Sw: 2},
	{Ih: 7, Iw: 7, Kh: 3, Kw: 3, Sh: 2, Sw: 2, Pt: 1, Pb: 1, Pl: 1, Pr: 1},
	{Ih: 10, Iw: 10, Kh: 3, Kw: 3, Sh: 1, Sw: 1, Pt: 1, Pb: 1, Pl: 1, Pr: 1},
	{Ih: 35, Iw: 35, Kh: 3, Kw: 3, Sh: 2, Sw: 2}, // InceptionV3 input 3 tile
}

func newTestCore() *aicore.Core { return aicore.New(buffer.Config{}, nil) }

// smallCore forces multi-band schedules on modest inputs.
func smallCore() *aicore.Core {
	return aicore.New(buffer.Config{UBSize: 16 << 10}, nil)
}

func randTile(seed int64, p isa.ConvParams) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	in := tensor.New(1, 1, p.Ih, p.Iw, tensor.C0)
	in.FillRandom(rng, 8)
	return in
}

func TestMaxForwardVariantsMatchReference(t *testing.T) {
	for _, p := range paramGrid {
		want := ref.MaxPoolForward(randTile(int64(p.Ih*100+p.Iw), p), p)
		for _, name := range Modes("maxpool_fwd") {
			for _, core := range []*aicore.Core{newTestCore(), smallCore()} {
				in := randTile(int64(p.Ih*100+p.Iw), p)
				got, st, err := runOne(core, "maxpool_fwd/"+name, p, in)
				if err != nil {
					t.Fatalf("%s %+v: %v", name, p, err)
				}
				if tensor.MaxAbsDiff(got, want) != 0 {
					t.Errorf("%s %+v: output diverges from reference", name, p)
				}
				if st.Cycles <= 0 || st.Instrs <= 0 {
					t.Errorf("%s %+v: empty stats %+v", name, p, st)
				}
			}
		}
	}
}

func TestAvgForwardVariantsMatchReference(t *testing.T) {
	for _, p := range paramGrid {
		in := randTile(int64(p.Ih*31+p.Iw), p)
		want := ref.AvgPoolForward(in, p)
		for _, name := range Modes("avgpool_fwd") {
			got, _, err := runOne(newTestCore(), "avgpool_fwd/"+name, p, in.Clone())
			if err != nil {
				t.Fatalf("%s %+v: %v", name, p, err)
			}
			d := tensor.MaxAbsDiff(got, want)
			// The Cube variant accumulates in fp32 with one final rounding,
			// so it may differ from the per-add-rounded reference by ULPs.
			tol := 0.0
			if name == "cube" {
				tol = 0.05
			}
			if d > tol {
				t.Errorf("%s %+v: output diverges from reference (max diff %v)", name, p, d)
			}
		}
	}
}

// The avgpool_fwd/cube variant is the §VIII future-work extension: avgpool as Cube-unit
// convolution. It must use the Cube pipe and be numerically close to the
// vector variants.
func TestAvgPoolCubeUsesCubeUnit(t *testing.T) {
	p := isa.ConvParams{Ih: 20, Iw: 20, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	in := randTile(9, p)
	out, st, err := runOne(newTestCore(), "avgpool_fwd/cube", p, in)
	if err != nil {
		t.Fatal(err)
	}
	if st.PipeInstrs[isa.PipeCube] == 0 {
		t.Error("cube avgpool did not run on the Cube unit")
	}
	if d := tensor.MaxAbsDiff(out, ref.AvgPoolForward(in, p)); d > 0.05 {
		t.Errorf("cube avgpool max diff %v", d)
	}
	// Exactness on integer inputs divisible by Kh*Kw... not guaranteed by
	// fp16 weights (1/9 is inexact); just require the same shape.
	if out.Shape[2] != 9 || out.Shape[3] != 9 {
		t.Errorf("cube avgpool shape %v", out.Shape)
	}
}

func TestArgmaxVariantsMatchReference(t *testing.T) {
	for _, p := range paramGrid {
		in := randTile(int64(p.Ih*7+p.Iw), p)
		wantOut := ref.MaxPoolForward(in, p)
		wantMask := ref.ArgmaxMask(in, p)
		for _, name := range Modes("maxpool_fwd_argmax") {
			for _, core := range []*aicore.Core{newTestCore(), smallCore()} {
				outs, _, err := runKernel(core, "maxpool_fwd_argmax/"+name, p, in.Clone())
				if err != nil {
					t.Fatalf("%s %+v: %v", name, p, err)
				}
				if tensor.MaxAbsDiff(outs[0], wantOut) != 0 {
					t.Errorf("%s %+v: output diverges", name, p)
				}
				if tensor.MaxAbsDiff(outs[1], wantMask) != 0 {
					t.Errorf("%s %+v: mask diverges", name, p)
				}
			}
		}
	}
}

func TestBackwardVariantsMatchReference(t *testing.T) {
	for _, p := range paramGrid {
		in := randTile(int64(p.Ih*13+p.Iw), p)
		mask := ref.ArgmaxMask(in, p)
		oh, ow := p.OutDims()
		rng := rand.New(rand.NewSource(99))
		grad := tensor.New(1, 1, oh, ow, tensor.C0)
		for i := 0; i < grad.Len(); i++ {
			grad.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(5))))
		}
		want := ref.MaxPoolBackward(mask, grad, p, p.Ih, p.Iw)
		for _, name := range Modes("maxpool_bwd") {
			for _, core := range []*aicore.Core{newTestCore(), smallCore()} {
				got, st, err := runOne(core, "maxpool_bwd/"+name, p, mask.Clone(), grad.Clone())
				if err != nil {
					t.Fatalf("%s %+v: %v", name, p, err)
				}
				if tensor.MaxAbsDiff(got, want) != 0 {
					t.Errorf("%s %+v: backward diverges from reference", name, p)
				}
				if st.Cycles <= 0 {
					t.Errorf("%s %+v: empty stats", name, p)
				}
			}
		}
	}
}

func TestAvgBackwardMatchesReference(t *testing.T) {
	for _, p := range paramGrid {
		oh, ow := p.OutDims()
		rng := rand.New(rand.NewSource(77))
		grad := tensor.New(1, 1, oh, ow, tensor.C0)
		for i := 0; i < grad.Len(); i++ {
			grad.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(8))))
		}
		want := ref.AvgPoolBackward(grad, p, p.Ih, p.Iw)
		for _, name := range Modes("avgpool_bwd") {
			got, _, err := runOne(newTestCore(), "avgpool_bwd/"+name, p, grad.Clone())
			if err != nil {
				t.Fatalf("%s %+v: %v", name, p, err)
			}
			if tensor.MaxAbsDiff(got, want) != 0 {
				t.Errorf("%s %+v: diverges from reference", name, p)
			}
		}
	}
}

// The paper's core performance claims, as shape assertions on the timing
// model: at an InceptionV3-like layer the Im2col forward beats standard,
// Col2im backward beats standard, and the orderings of Fig. 8 hold.
func TestSpeedupShape(t *testing.T) {
	p := isa.ConvParams{Ih: 71, Iw: 71, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	in := randTile(1, p)

	cycles := map[string]int64{}
	for _, name := range Modes("maxpool_fwd") {
		_, st, err := runOne(newTestCore(), "maxpool_fwd/"+name, p, in)
		if err != nil {
			t.Fatal(err)
		}
		cycles[name] = st.Cycles
	}
	if cycles["im2col"] >= cycles["standard"] {
		t.Errorf("stride 2: im2col (%d) not faster than standard (%d)", cycles["im2col"], cycles["standard"])
	}
	if cycles["expansion"] >= cycles["standard"] {
		t.Errorf("stride 2: expansion (%d) not faster than standard (%d)", cycles["expansion"], cycles["standard"])
	}
	if cycles["im2col"] >= cycles["expansion"] {
		t.Errorf("stride 2: im2col (%d) not faster than expansion (%d)", cycles["im2col"], cycles["expansion"])
	}

	// Stride (1, 1): the direct implementation wins (Fig. 8a).
	p1 := isa.ConvParams{Ih: 41, Iw: 41, Kh: 3, Kw: 3, Sh: 1, Sw: 1}
	in1 := randTile(2, p1)
	_, stStd, err := runOne(newTestCore(), "maxpool_fwd/standard", p1, in1)
	if err != nil {
		t.Fatal(err)
	}
	_, stIm, err := runOne(newTestCore(), "maxpool_fwd/im2col", p1, in1)
	if err != nil {
		t.Fatal(err)
	}
	if stStd.Cycles >= stIm.Cycles {
		t.Errorf("stride 1: standard (%d) not faster than im2col (%d)", stStd.Cycles, stIm.Cycles)
	}

	// Backward: col2im wins (Fig. 7c).
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
	if stBwdCi.Cycles >= stBwdStd.Cycles {
		t.Errorf("backward: col2im (%d) not faster than standard (%d)", stBwdCi.Cycles, stBwdStd.Cycles)
	}
}

func TestRejectsBadInputs(t *testing.T) {
	core := newTestCore()
	p := isa.ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	// Wrong tile rank.
	if _, _, err := runOne(core, "maxpool_fwd/standard", p, tensor.New(8, 8)); err == nil {
		t.Error("wrong rank accepted")
	}
	// Tile/params mismatch.
	if _, _, err := runOne(core, "maxpool_fwd/im2col", p, tensor.New(1, 1, 9, 8, tensor.C0)); err == nil {
		t.Error("mismatched tile accepted")
	}
	// Invalid params.
	bad := p
	bad.Sh = 0
	if _, _, err := runOne(core, "maxpool_fwd/standard", bad, tensor.New(1, 1, 8, 8, tensor.C0)); err == nil {
		t.Error("invalid params accepted")
	}
	// Backward shape checks.
	if _, _, err := runOne(core, "maxpool_bwd/col2im", p, tensor.New(1, 1, 3, 3, 16, tensor.C0), tensor.New(1, 1, 4, 4, tensor.C0)); err == nil {
		t.Error("bad mask shape accepted")
	}
	if _, _, err := runOne(core, "maxpool_bwd/standard", p, tensor.New(1, 1, 2, 2, 16, tensor.C0), tensor.New(1, 1, 4, 5, tensor.C0)); err == nil {
		t.Error("bad grad shape accepted")
	}
}

// Determinism: the same input and variant produce identical cycles.
func TestDeterministicTiming(t *testing.T) {
	p := isa.ConvParams{Ih: 20, Iw: 20, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	in := randTile(5, p)
	_, st1, err := runOne(newTestCore(), "maxpool_fwd/im2col", p, in)
	if err != nil {
		t.Fatal(err)
	}
	_, st2, err := runOne(newTestCore(), "maxpool_fwd/im2col", p, in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if st1.Cycles != st2.Cycles || st1.Instrs != st2.Instrs {
		t.Errorf("non-deterministic timing: %+v vs %+v", st1, st2)
	}
}
