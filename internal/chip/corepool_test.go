package chip

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/faults"
	"davinci/internal/isa"
	"davinci/internal/ops"
	"davinci/internal/ref"
	"davinci/internal/tensor"
)

// TestCorePoolReuseMatchesFresh: one chip serving runs of different
// kernels and layers, so its workers take cores another kernel or shape
// left dirty, matches a fresh chip per run byte for byte and cycle for
// cycle.
func TestCorePoolReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tile := func(c1, h, w int) *tensor.Tensor {
		in := tensor.New(1, c1, h, w, tensor.C0)
		in.FillRandom(rng, 8)
		return in
	}
	small := isa.ConvParams{Ih: 17, Iw: 17, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	large := isa.ConvParams{Ih: 35, Iw: 35, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	padded := isa.ConvParams{Ih: 20, Iw: 20, Kh: 3, Kw: 3, Sh: 1, Sw: 1, Pt: 1, Pb: 1, Pl: 1, Pr: 1}
	inL, inS, inP := tile(3, 35, 35), tile(3, 17, 17), tile(3, 20, 20)
	oh, ow := small.OutDims()
	grad := tile(3, oh, ow)
	mask := tensor.New(1, 3, small.Kh, small.Kw, small.PaddedPatches(), tensor.C0)
	for ci := 0; ci < 3; ci++ {
		tensor.StoreOuter2(mask, ref.ArgmaxMask(tensor.SliceC1(inS, 0, ci), small), 0, ci)
	}
	runs := []struct {
		name string
		run  func(c *Chip) ([]*tensor.Tensor, *Stats, error)
	}{
		{"maxpool_fwd/im2col 35", func(c *Chip) ([]*tensor.Tensor, *Stats, error) {
			out, st, err := c.MaxPoolForward("im2col", inL, large)
			return []*tensor.Tensor{out}, st, err
		}},
		{"avgpool_fwd/im2col 17", func(c *Chip) ([]*tensor.Tensor, *Stats, error) {
			out, st, err := c.AvgPoolForward("im2col", inS, small)
			return []*tensor.Tensor{out}, st, err
		}},
		{"maxpool_fwd/standard 20 padded", func(c *Chip) ([]*tensor.Tensor, *Stats, error) {
			out, st, err := c.MaxPoolForward("standard", inP, padded)
			return []*tensor.Tensor{out}, st, err
		}},
		{"maxpool_fwd_argmax/im2col 17", func(c *Chip) ([]*tensor.Tensor, *Stats, error) {
			out, m, st, err := c.MaxPoolForwardArgmax("im2col", inS, small)
			return []*tensor.Tensor{out, m}, st, err
		}},
		{"maxpool_bwd/col2im 17", func(c *Chip) ([]*tensor.Tensor, *Stats, error) {
			out, st, err := c.MaxPoolBackward("col2im", mask, grad, small)
			return []*tensor.Tensor{out}, st, err
		}},
		{"avgpool_bwd/col2im 17", func(c *Chip) ([]*tensor.Tensor, *Stats, error) {
			out, st, err := c.AvgPoolBackward(grad, small, true)
			return []*tensor.Tensor{out}, st, err
		}},
		{"avgpool_fwd/cube 20 padded", func(c *Chip) ([]*tensor.Tensor, *Stats, error) {
			out, st, err := c.AvgPoolForward("cube", inP, padded)
			return []*tensor.Tensor{out}, st, err
		}},
	}
	cfg := Config{Cores: 4}
	reused := New(cfg)
	for pass := 0; pass < 2; pass++ {
		for _, r := range runs {
			want, wantSt, err := r.run(New(cfg))
			if err != nil {
				t.Fatalf("%s: fresh chip: %v", r.name, err)
			}
			got, st, err := r.run(reused)
			if err != nil {
				t.Fatalf("%s: reused chip: %v", r.name, err)
			}
			for i := range want {
				if !bytes.Equal(got[i].Data, want[i].Data) {
					t.Errorf("pass %d %s: output %d differs from a fresh chip", pass, r.name, i)
				}
			}
			if st.Cycles != wantSt.Cycles || st.Work != wantSt.Work {
				t.Errorf("pass %d %s: %v, want %v", pass, r.name, st.Work, wantSt.Work)
			}
			for k := range wantSt.CoreCycles {
				if st.CoreCycles[k] != wantSt.CoreCycles[k] {
					t.Errorf("pass %d %s: core %d: %d cycles, want %d", pass, r.name, k, st.CoreCycles[k], wantSt.CoreCycles[k])
				}
			}
		}
	}
	if len(reused.cores.free) == 0 {
		t.Error("no core came back to the free list")
	}
}

// TestCorePoolDropsFailedCores: with a fault on every first attempt of
// a one-tile run, the faulted core is dropped and only the retry's clean
// core returns to the free list.
func TestCorePoolDropsFailedCores(t *testing.T) {
	p := isa.ConvParams{Ih: 17, Iw: 17, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	inj := faults.New(faults.Config{Seed: 1, Rate: 1, Kinds: []faults.Kind{faults.KindTransient}}, nil)
	c := New(Config{Cores: 2, Resilience: Resilience{Enabled: true, Injector: inj}})
	pl, err := ops.PlanMaxPoolForward("im2col", c.spec, p)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 1, p.Ih, p.Iw, tensor.C0)
	in.FillRandom(rand.New(rand.NewSource(2)), 8)
	var mu sync.Mutex
	var failed, clean []*aicore.Core
	_, _, err = c.runTiles(nil, 1, 1, func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
		outs, st, err := pl.Run(core, in)
		mu.Lock()
		if err != nil {
			failed = append(failed, core)
		} else {
			clean = append(clean, core)
		}
		mu.Unlock()
		return outs, st, err
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || len(clean) != 1 {
		t.Fatalf("%d failed and %d clean attempts, want 1 and 1", len(failed), len(clean))
	}
	free := c.cores.free
	if len(free) != 1 || free[0] != clean[0] {
		t.Fatalf("free list %p, want only the clean core %p", free, clean[0])
	}
	if free[0].OnInstr != nil || free[0].Cancel != nil || free[0].Trace != nil {
		t.Error("a pooled core kept its per-attempt hooks")
	}
}

// TestCorePoolBound: concurrent runs on views of one chip share its free
// list, which never holds more than GOMAXPROCS cores.
func TestCorePoolBound(t *testing.T) {
	c := New(Config{Cores: 8})
	const runs = 4
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view := c.WithContext(context.Background()).WithTrace(c.cfg.Trace)
			_, _, err := view.runTiles(nil, 1, 8, func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
				runtime.Gosched()
				return nil, &aicore.Stats{Cycles: 1}, nil
			}, nil)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n, max := len(c.cores.free), runtime.GOMAXPROCS(0); n == 0 || n > max {
		t.Errorf("free list holds %d cores, want 1..%d", n, max)
	}
}
