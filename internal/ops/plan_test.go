package ops

import (
	"bytes"
	"sync"
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/obs"
	"davinci/internal/ref"
	"davinci/internal/tensor"
	"davinci/internal/trace"
)

// planCase is one catalogue kernel's cached-plan lookup with
// ready-to-run single-tile inputs.
type planCase struct {
	name   string
	get    func(c *PlanCache, spec Spec) (*Plan, error)
	inputs []*tensor.Tensor
}

// planCases lists every catalogue kernel, named by its program, with
// inputs for layer p (the convolutions over one C0 slice).
func planCases(p isa.ConvParams) []planCase {
	in := randTile(7, p)
	mask := ref.ArgmaxMask(in, p)
	oh, ow := p.OutDims()
	grad := tensor.New(1, 1, oh, ow, tensor.C0)
	for i := 0; i < grad.Len(); i++ {
		grad.SetFlat(i, fp16.FromFloat64(float64(i%5)))
	}
	w := tensor.New(tensor.C0, tensor.C0, p.Kh, p.Kw)
	w.Fill(fp16.FromFloat64(0.25))
	inputs := map[string][]*tensor.Tensor{
		"maxpool_fwd":        {in},
		"maxpool_fwd_argmax": {in},
		"maxpool_bwd":        {mask, grad},
		"avgpool_fwd":        {in},
		"avgpool_bwd":        {grad},
		"conv2d":             {in, w},
		"conv2d_bwd_data":    {grad, w},
		"conv2d_bwd_weights": {grad, in},
	}
	var cases []planCase
	for _, k := range Kernels() {
		cases = append(cases, planCase{k.Program,
			func(c *PlanCache, spec Spec) (*Plan, error) {
				return c.Plan(trace.Ctx{}, k, spec, k.Dims(p, tensor.C0, tensor.C0))
			},
			inputs[k.Family]})
	}
	return cases
}

// TestPlanReplayConcurrent replays one cached plan per kernel variant
// from many goroutines on separate cores (run under -race) and checks
// every replay is bit-identical — outputs and cycle counts — to a cold
// compile-and-run of the same kernel. It also pins the cache accounting:
// exactly one miss compiles, every other lookup hits.
func TestPlanReplayConcurrent(t *testing.T) {
	p := isa.ConvParams{Ih: 20, Iw: 20, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	spec := Spec{}
	const goroutines, iters = 8, 4

	for _, tc := range planCases(p) {
		t.Run(tc.name, func(t *testing.T) {
			// Cold path: a fresh cache, one compile, one scheduled run.
			cold, err := tc.get(NewPlanCache(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Name != tc.name {
				t.Errorf("plan name %q, want the catalogue's program name %q", cold.Name, tc.name)
			}
			baseOuts, baseStats, err := cold.Run(newTestCore(), tc.inputs...)
			if err != nil {
				t.Fatal(err)
			}

			shared := NewPlanCache()
			var wg sync.WaitGroup
			errs := make(chan error, goroutines*iters)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					core := aicore.New(buffer.Config{}, nil)
					for it := 0; it < iters; it++ {
						pl, err := tc.get(shared, spec)
						if err != nil {
							errs <- err
							return
						}
						outs, st, err := pl.Run(core, tc.inputs...)
						if err != nil {
							errs <- err
							return
						}
						if st.Cycles != baseStats.Cycles {
							t.Errorf("replay cycles %d != cold cycles %d", st.Cycles, baseStats.Cycles)
							return
						}
						for i := range outs {
							if !bytes.Equal(outs[i].Data, baseOuts[i].Data) {
								t.Errorf("replay output %d not bit-identical to cold run", i)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			st := shared.Stats()
			if st.Compiled != 1 || st.Misses != 1 {
				t.Errorf("cache compiled %d plans on %d misses, want 1 and 1", st.Compiled, st.Misses)
			}
			if st.Hits != goroutines*iters-1 {
				t.Errorf("cache hits = %d, want %d", st.Hits, goroutines*iters-1)
			}
		})
	}
}

// TestPlanCacheKeyCollision checks that plans for the same kernel but
// different shape parameters, auxiliary channel counts, or buffer specs
// never alias in the cache, and that each replays to its own reference
// result.
func TestPlanCacheKeyCollision(t *testing.T) {
	c := NewPlanCache()
	spec := Spec{}
	p1 := isa.ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	p2 := isa.ConvParams{Ih: 12, Iw: 10, Kh: 3, Kw: 3, Sh: 2, Sw: 2}

	plA, err := c.MaxPoolForward(trace.Ctx{}, "im2col", spec, p1)
	if err != nil {
		t.Fatal(err)
	}
	plB, err := c.MaxPoolForward(trace.Ctx{}, "im2col", spec, p2)
	if err != nil {
		t.Fatal(err)
	}
	if plA == plB {
		t.Fatal("plans for different ConvParams share one cache entry")
	}
	if plA.Params != p1 || plB.Params != p2 {
		t.Errorf("plan params swapped: %+v / %+v", plA.Params, plB.Params)
	}
	// Each plan must still compute its own shape, not the other's.
	for _, pc := range []struct {
		pl *Plan
		p  isa.ConvParams
	}{{plA, p1}, {plB, p2}} {
		in := randTile(3, pc.p)
		outs, _, err := pc.pl.Run(newTestCore(), in)
		if err != nil {
			t.Fatal(err)
		}
		if tensor.MaxAbsDiff(outs[0], ref.MaxPoolForward(in, pc.p)) != 0 {
			t.Errorf("plan for %+v diverges from reference after cache round-trip", pc.p)
		}
	}
	// Same params, different buffer spec: a shrunken UB forces a different
	// schedule, so the key must include the Spec.
	small := Spec{Buffers: buffer.Config{UBSize: 16 << 10}}
	plSmall, err := c.MaxPoolForward(trace.Ctx{}, "im2col", small, p2)
	if err != nil {
		t.Fatal(err)
	}
	if plSmall == plB {
		t.Error("plans for different buffer specs share one cache entry")
	}
	// Same params, different logical channels (the Aux key ints).
	conv, err := Lookup("conv2d")
	if err != nil {
		t.Fatal(err)
	}
	conv16, err := c.Plan(trace.Ctx{}, conv, spec, Dims{P: p1, Co: tensor.C0, C: tensor.C0})
	if err != nil {
		t.Fatal(err)
	}
	conv32, err := c.Plan(trace.Ctx{}, conv, spec, Dims{P: p1, Co: 2 * tensor.C0, C: tensor.C0})
	if err != nil {
		t.Fatal(err)
	}
	if conv16 == conv32 {
		t.Error("conv plans for different Co share one cache entry")
	}
	if st := c.Stats(); st.Compiled != 5 || st.Hits != 0 {
		t.Errorf("cache stats %+v, want 5 distinct compilations and 0 hits", st)
	}
	// A zero-valued spec and the explicit Ascend defaults normalize to the
	// same key: this lookup must hit.
	if _, err := c.MaxPoolForward(trace.Ctx{}, "im2col", Spec{Buffers: buffer.Config{}.Normalized()}, p1); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("normalized-spec lookup missed: %+v", st)
	}
}

// TestTraceOneTimelinePerRun pins the replay contract for tracing cores:
// Plan.Run resets the attached trace, so repeated (memoized) replays yield
// one timeline each instead of accumulating entries without bound.
func TestTraceOneTimelinePerRun(t *testing.T) {
	p := isa.ConvParams{Ih: 12, Iw: 12, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	in := randTile(5, p)
	pl, err := Compile("maxpool_fwd/im2col", Spec{}, Dims{P: p})
	if err != nil {
		t.Fatal(err)
	}
	core := newTestCore()
	core.Trace = &aicore.Trace{}
	var first int
	for run := 1; run <= 3; run++ {
		if _, _, err := pl.Run(core, in); err != nil {
			t.Fatal(err)
		}
		if run == 1 {
			first = len(core.Trace.Entries)
			if first == 0 {
				t.Fatal("traced run recorded no entries")
			}
			continue
		}
		if got := len(core.Trace.Entries); got != first {
			t.Fatalf("run %d: %d trace entries, want %d (trace accumulating across replays)", run, got, first)
		}
	}
}

// TestPlanCacheMetrics checks that a cache built on a shared registry
// publishes its hit/miss/compile counters there, in agreement with the
// CacheStats view.
func TestPlanCacheMetrics(t *testing.T) {
	r := obs.NewRegistry()
	c := NewPlanCacheOn(r)
	p := isa.ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	if _, err := c.MaxPoolForward(trace.Ctx{}, "im2col", Spec{}, p); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MaxPoolForward(trace.Ctx{}, "im2col", Spec{}, p); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"plan_cache_hits": 1, "plan_cache_misses": 1, "plan_cache_compiled": 1}
	snap := r.Snapshot()
	for _, m := range snap.Counters {
		if v, ok := want[m.Name]; ok {
			if m.Value != v {
				t.Errorf("%s = %d, want %d", m.Name, m.Value, v)
			}
			delete(want, m.Name)
		}
	}
	for name := range want {
		t.Errorf("counter %s missing from registry snapshot", name)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Compiled != 1 {
		t.Errorf("CacheStats %+v disagrees with registry", st)
	}
}

// BenchmarkReplayTile times the memoized replay (Plan.Run on a primed
// plan: the flattened trace) of one 147x147 k3s2 tile of the forward
// pooling kernels, both lowerings, and the Col2im backward ones, with
// allocations — the per-tile host cost the serving layer pays. The CI
// smoke step runs it with -benchtime=1x.
func BenchmarkReplayTile(b *testing.B) {
	p := isa.ConvParams{Ih: 147, Iw: 147, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	cache := NewPlanCache()
	for _, pc := range planCases(p) {
		switch pc.name {
		case "maxpool_fwd_im2col", "avgpool_fwd_im2col", "maxpool_fwd_standard", "avgpool_fwd_standard",
			"maxpool_bwd_col2im", "avgpool_bwd_col2im":
		default:
			continue
		}
		b.Run(pc.name, func(b *testing.B) {
			pl, err := pc.get(cache, Spec{})
			if err != nil {
				b.Fatal(err)
			}
			core := newTestCore()
			if _, _, err := pl.Run(core, pc.inputs...); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := pl.Run(core, pc.inputs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanCache compares host wall time of the cold path (compile the
// schedule, then run) against cached replay of one plan, on the largest
// InceptionV3 Maxpool layer of the paper (147x147, kernel 3, stride 2) —
// the CI smoke step runs it with -benchtime=1x. The strict-cold
// sub-benchmarks time what a serving plan-cache miss costs: a strict
// (linted) compile and the first tile's run, with allocations, for the
// standard lowering (the largest programs to lint) and im2col.
func BenchmarkPlanCache(b *testing.B) {
	p := isa.ConvParams{Ih: 147, Iw: 147, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	in := randTile(42, p)
	spec := Spec{}

	for _, kernel := range []string{"maxpool_fwd/standard", "avgpool_fwd/im2col", "maxpool_fwd_argmax/standard"} {
		b.Run("strict-cold/"+kernel, func(b *testing.B) {
			core := newTestCore()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pl, err := Compile(kernel, Spec{Strict: true}, Dims{P: p})
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := pl.Run(core, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	b.Run("cold-compile", func(b *testing.B) {
		core := newTestCore()
		for i := 0; i < b.N; i++ {
			pl, err := Compile("maxpool_fwd/im2col", spec, Dims{P: p})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := pl.Run(core, in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached-replay", func(b *testing.B) {
		cache := NewPlanCache()
		core := newTestCore()
		pl, err := cache.MaxPoolForward(trace.Ctx{}, "im2col", spec, p)
		if err != nil {
			b.Fatal(err)
		}
		// Prime the timing memo so the loop measures steady-state replay.
		if _, _, err := pl.Run(core, in); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pl, err := cache.MaxPoolForward(trace.Ctx{}, "im2col", spec, p)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := pl.Run(core, in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestPlanCacheSpeedup is the acceptance check behind BenchmarkPlanCache:
// cached replay of the 147x147 layer must beat compile-per-call host wall
// time by at least 2x (in practice the margin is much larger, since replay
// skips emission, validation and the hazard scoreboard).
func TestPlanCacheSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the compile/replay cost ratio")
	}
	p := isa.ConvParams{Ih: 147, Iw: 147, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	in := randTile(42, p)
	spec := Spec{}
	core := newTestCore()
	const iters = 5

	cold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < iters; j++ {
				pl, err := Compile("maxpool_fwd/im2col", spec, Dims{P: p})
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := pl.Run(core, in); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	pl, err := NewPlanCache().MaxPoolForward(trace.Ctx{}, "im2col", spec, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pl.Run(core, in); err != nil { // prime the timing memo
		t.Fatal(err)
	}
	warm := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < iters; j++ {
				if _, _, err := pl.Run(core, in); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	coldNs := float64(cold.NsPerOp())
	warmNs := float64(warm.NsPerOp())
	t.Logf("cold %.2fms vs cached %.2fms per %d runs (%.1fx)", coldNs/1e6, warmNs/1e6, iters, coldNs/warmNs)
	if coldNs < 2*warmNs {
		t.Errorf("cached replay only %.2fx faster than cold compile, want >= 2x", coldNs/warmNs)
	}
}
