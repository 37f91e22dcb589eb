package ops

import (
	"math/rand"
	"testing"
	"testing/quick"

	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/ref"
	"davinci/internal/tensor"
)

// randomParams derives a valid layer configuration from raw fuzz bytes.
func randomParams(ihRaw, iwRaw, khRaw, kwRaw, shRaw, swRaw, padRaw uint8) (isa.ConvParams, bool) {
	p := isa.ConvParams{
		Ih: int(ihRaw%26) + 5,
		Iw: int(iwRaw%26) + 5,
		Kh: int(khRaw%3) + 1,
		Kw: int(kwRaw%3) + 1,
		Sh: int(shRaw%3) + 1,
		Sw: int(swRaw%3) + 1,
	}
	if padRaw%3 == 0 {
		p.Pt, p.Pb = min(1, p.Kh-1), min(1, p.Kh-1)
		p.Pl, p.Pr = min(1, p.Kw-1), min(1, p.Kw-1)
	}
	return p, p.Validate() == nil
}

// Property: on arbitrary valid configurations, every forward Maxpool
// variant reproduces the reference bit for bit.
func TestQuickForwardVariants(t *testing.T) {
	core := newTestCore()
	f := func(a, b, c, d, e, g, h uint8, seed int64) bool {
		p, ok := randomParams(a, b, c, d, e, g, h)
		if !ok {
			return true
		}
		in := randTile(seed, p)
		want := ref.MaxPoolForward(in, p)
		for _, name := range Modes("maxpool_fwd") {
			got, _, err := runOne(core, "maxpool_fwd/"+name, p, in)
			if err != nil {
				t.Logf("%s %+v: %v", name, p, err)
				return false
			}
			if tensor.MaxAbsDiff(got, want) != 0 {
				t.Logf("%s %+v diverges", name, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the argmax mask produced by either variant drives both
// backward variants to the same (reference) gradient.
func TestQuickTrainingPath(t *testing.T) {
	core := newTestCore()
	f := func(a, b, c, d, e, g, h uint8, seed int64) bool {
		p, ok := randomParams(a, b, c, d, e, g, h)
		if !ok {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		in := tensor.New(1, 1, p.Ih, p.Iw, tensor.C0)
		for i := 0; i < in.Len(); i++ {
			in.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(512))))
		}
		oh, ow := p.OutDims()
		grad := tensor.New(1, 1, oh, ow, tensor.C0)
		for i := 0; i < grad.Len(); i++ {
			grad.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(4))))
		}
		for _, fwdName := range []string{"standard", "im2col"} {
			outs, _, err := runKernel(core, "maxpool_fwd_argmax/"+fwdName, p, in)
			if err != nil {
				t.Logf("%s %+v: %v", fwdName, p, err)
				return false
			}
			mask := outs[1]
			want := ref.MaxPoolBackward(mask, grad, p, p.Ih, p.Iw)
			for _, bwdName := range []string{"standard", "col2im"} {
				got, _, err := runOne(core, "maxpool_bwd/"+bwdName, p, mask, grad)
				if err != nil {
					t.Logf("%s/%s %+v: %v", fwdName, bwdName, p, err)
					return false
				}
				if tensor.MaxAbsDiff(got, want) != 0 {
					t.Logf("%s/%s %+v diverges", fwdName, bwdName, p)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: pooling a constant tensor returns that constant everywhere
// (max) or that constant (avg, up to one rounding of the 1/(Kh*Kw)
// multiply), for every variant — a classic metamorphic identity. Padding
// is excluded because zero padding legitimately changes border outputs.
func TestQuickConstantIdentity(t *testing.T) {
	core := newTestCore()
	f := func(a, b, c, d, e, g uint8, vRaw uint8) bool {
		p, ok := randomParams(a, b, c, d, e, g, 1 /* no padding */)
		if !ok {
			return true
		}
		v := fp16.FromFloat64(float64(vRaw%32) + 1)
		in := tensor.New(1, 1, p.Ih, p.Iw, tensor.C0)
		in.Fill(v)
		for _, name := range Modes("maxpool_fwd") {
			got, _, err := runOne(core, "maxpool_fwd/"+name, p, in)
			if err != nil {
				return false
			}
			for i := 0; i < got.Len(); i++ {
				if got.AtFlat(i) != v {
					t.Logf("%s %+v: constant not preserved", name, p)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the im2col variant's global-memory traffic equals the standard
// variant's for pad-free layers (both read the input once and write the
// output once); the duplicated data moves only between local buffers.
func TestQuickTrafficParity(t *testing.T) {
	core := newTestCore()
	f := func(a, b uint8, seed int64) bool {
		p := isa.ConvParams{Ih: int(a%20) + 9, Iw: int(b%20) + 9, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
		if p.Validate() != nil {
			return true
		}
		in := randTile(seed, p)
		_, stStd, err := runOne(core, "maxpool_fwd/standard", p, in)
		if err != nil {
			return false
		}
		_, stIm, err := runOne(core, "maxpool_fwd/im2col", p, in)
		if err != nil {
			return false
		}
		// The standard kernel may re-read overlap rows at band boundaries;
		// the im2col kernel reads the input exactly once when it fits L1.
		return stIm.BytesIn <= stStd.BytesIn+int64(p.Kh*p.Iw*Block) &&
			stIm.BytesOut == stStd.BytesOut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
