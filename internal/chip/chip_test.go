package chip

import (
	"math/rand"
	"testing"

	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/ref"
	"davinci/internal/tensor"
)

func randInput(seed int64, n, c1, h, w int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(n, c1, h, w, tensor.C0)
	t.FillRandom(rng, 4)
	return t
}

func TestMaxPoolForwardMultiTile(t *testing.T) {
	p := isa.ConvParams{Ih: 16, Iw: 16, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	in := randInput(1, 2, 5, 16, 16)
	want := ref.MaxPoolForward(in, p)
	for _, variant := range []string{"standard", "im2col", "expansion", "xysplit"} {
		c := New(Config{Cores: 4})
		got, st, err := c.MaxPoolForward(variant, in, p)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if tensor.MaxAbsDiff(got, want) != 0 {
			t.Errorf("%s: multi-tile output diverges", variant)
		}
		if st.Tiles != 10 {
			t.Errorf("%s: tiles = %d, want 10", variant, st.Tiles)
		}
	}
}

// Chip cycles are the max over cores: with one tile per core the chip time
// equals the single-tile time; with more tiles than cores it grows.
func TestParallelScaling(t *testing.T) {
	p := isa.ConvParams{Ih: 24, Iw: 24, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	in4 := randInput(2, 1, 4, 24, 24)
	c4 := New(Config{Cores: 4})
	_, st4, err := c4.MaxPoolForward("im2col", in4, p)
	if err != nil {
		t.Fatal(err)
	}
	c1 := New(Config{Cores: 1})
	_, st1, err := c1.MaxPoolForward("im2col", in4, p)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Cycles <= st4.Cycles {
		t.Errorf("1 core (%d cycles) should be slower than 4 cores (%d)", st1.Cycles, st4.Cycles)
	}
	if st1.Cycles < 3*st4.Cycles {
		t.Errorf("expected ~4x serialization, got %d vs %d", st1.Cycles, st4.Cycles)
	}
	// Equal tiles on equal cores: every core reports similar cycles.
	for i, cc := range st4.CoreCycles {
		if cc == 0 {
			t.Errorf("core %d idle", i)
		}
	}
}

func TestArgmaxAndBackwardRoundTrip(t *testing.T) {
	p := isa.ConvParams{Ih: 20, Iw: 20, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	in := randInput(3, 1, 3, 20, 20)
	oh, ow := p.OutDims()

	c := New(Config{Cores: 3})
	for _, variant := range []string{"standard", "im2col"} {
		out, mask, _, err := c.MaxPoolForwardArgmax(variant, in, p)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if tensor.MaxAbsDiff(out, ref.MaxPoolForward(in, p)) != 0 {
			t.Errorf("%s: argmax forward output diverges", variant)
		}
		if tensor.MaxAbsDiff(mask, ref.ArgmaxMask(in, p)) != 0 {
			t.Errorf("%s: mask diverges", variant)
		}

		grad := tensor.New(1, 3, oh, ow, tensor.C0)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < grad.Len(); i++ {
			grad.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(4))))
		}
		want := ref.MaxPoolBackward(mask, grad, p, p.Ih, p.Iw)
		for _, bv := range []string{"standard", "col2im"} {
			back, _, err := c.MaxPoolBackward(bv, mask, grad, p)
			if err != nil {
				t.Fatalf("%s/%s: %v", variant, bv, err)
			}
			if tensor.MaxAbsDiff(back, want) != 0 {
				t.Errorf("%s/%s: backward diverges", variant, bv)
			}
		}
	}
}

func TestAvgPoolChip(t *testing.T) {
	p := isa.ConvParams{Ih: 12, Iw: 12, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	in := randInput(5, 1, 2, 12, 12)
	want := ref.AvgPoolForward(in, p)
	c := New(Config{Cores: 2})
	for _, variant := range []string{"standard", "im2col"} {
		got, _, err := c.AvgPoolForward(variant, in, p)
		if err != nil {
			t.Fatal(err)
		}
		if tensor.MaxAbsDiff(got, want) != 0 {
			t.Errorf("%s: avg forward diverges", variant)
		}
	}
	oh, ow := p.OutDims()
	grad := tensor.New(1, 2, oh, ow, tensor.C0)
	grad.Fill(fp16.One)
	wantB := ref.AvgPoolBackward(grad, p, p.Ih, p.Iw)
	for _, variant := range []string{"standard", "col2im"} {
		got, _, err := c.AvgPoolBackward(variant, grad, p)
		if err != nil {
			t.Fatal(err)
		}
		if tensor.MaxAbsDiff(got, wantB) != 0 {
			t.Errorf("%s: avg backward diverges", variant)
		}
	}
}

func TestConvChipBatch(t *testing.T) {
	p := isa.ConvParams{Ih: 8, Iw: 8, Kh: 3, Kw: 3, Sh: 1, Sw: 1, Pt: 1, Pb: 1, Pl: 1, Pr: 1}
	rng := rand.New(rand.NewSource(11))
	in := tensor.New(2, 1, 8, 8, tensor.C0)
	in.FillRandom(rng, 1)
	w := tensor.New(16, 16, 3, 3)
	w.FillRandom(rng, 1)
	c := New(Config{Cores: 2})
	got, st, err := c.Conv2D(in, w, p)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Conv2D(in, w, p)
	if d := tensor.MaxAbsDiff(got, want); d > 0.5 {
		t.Errorf("batched conv max diff %v", d)
	}
	if st.Tiles != 2 {
		t.Errorf("tiles = %d", st.Tiles)
	}
}

func TestUnknownVariants(t *testing.T) {
	c := New(Config{Cores: 1})
	p := isa.ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	in := randInput(1, 1, 1, 8, 8)
	if _, _, err := c.MaxPoolForward("nope", in, p); err == nil {
		t.Error("unknown forward variant accepted")
	}
	if _, _, _, err := c.MaxPoolForwardArgmax("nope", in, p); err == nil {
		t.Error("unknown argmax variant accepted")
	}
	if _, _, err := c.MaxPoolBackward("nope", tensor.New(1, 1, 2, 2, 16, tensor.C0), in, p); err == nil {
		t.Error("unknown backward variant accepted")
	}
	if _, _, err := c.AvgPoolForward("nope", in, p); err == nil {
		t.Error("unknown avg variant accepted")
	}
	if _, _, err := c.MaxPoolForward("standard", tensor.New(4, 4), p); err == nil {
		t.Error("non-fractal input accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := New(Config{})
	if c.Cores() != DefaultCores {
		t.Errorf("default cores = %d", c.Cores())
	}
}

// Xception's 37x37x728 layer has C1 = 46 > 32 cores: some cores process
// two tiles. Chip time must be at least two single-tile times and the
// output must still match the reference.
func TestLoadImbalanceBeyondCoreCount(t *testing.T) {
	p := isa.ConvParams{Ih: 37, Iw: 37, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	in := randInput(17, 1, 46, 37, 37)
	c32 := New(Config{Cores: 32})
	got, st, err := c32.MaxPoolForward("im2col", in, p)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(got, ref.MaxPoolForward(in, p)) != 0 {
		t.Error("imbalanced run diverges")
	}
	// Single-tile time from a 1-tile input.
	one := randInput(18, 1, 1, 37, 37)
	_, st1, err := New(Config{Cores: 1}).MaxPoolForward("im2col", one, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles < 2*st1.Cycles-st1.Cycles/10 {
		t.Errorf("46 tiles on 32 cores should take ~2 tile times: %d vs tile %d", st.Cycles, st1.Cycles)
	}
	if st.Tiles != 46 {
		t.Errorf("tiles = %d", st.Tiles)
	}
	// 14 cores got one tile, 18 got two: max core cycles ~ 2x min.
	var minC, maxC int64 = 1 << 62, 0
	for _, cc := range st.CoreCycles {
		if cc < minC {
			minC = cc
		}
		if cc > maxC {
			maxC = cc
		}
	}
	if maxC < minC*3/2 {
		t.Errorf("expected ~2x imbalance, got min %d max %d", minC, maxC)
	}
}

func TestConvBackwardChip(t *testing.T) {
	p := isa.ConvParams{Ih: 8, Iw: 8, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	rng := rand.New(rand.NewSource(23))
	oh, ow := p.OutDims()
	grad := tensor.New(2, 1, oh, ow, tensor.C0)
	grad.FillRandom(rng, 1)
	w := tensor.New(16, 16, 3, 3)
	w.FillRandom(rng, 0.5)
	c := New(Config{Cores: 2})
	got, st, err := c.Conv2DBackwardData(grad, w, p, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Conv2DBackwardData(grad, w, p, 16)
	if d := tensor.MaxAbsDiff(got, want); d > 0.1 {
		t.Errorf("chip conv backward max diff %v", d)
	}
	if st.Tiles != 2 {
		t.Errorf("tiles = %d", st.Tiles)
	}
	if got.Shape[2] != 8 || got.Shape[3] != 8 {
		t.Errorf("dX shape %v", got.Shape)
	}
}
