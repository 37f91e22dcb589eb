// Plan/bind/execute: every kernel in this package is split into a
// shape-dependent compile step and a data-dependent execute step.
//
// Compilation (a catalogue entry's lowering, kernels.go) runs the
// kernel's scheduling logic — band sizing, buffer allocation, CCE
// emission — against a buffer layout built from a Spec, and produces a
// Plan: an immutable, validated cce.Program plus the global-memory layout
// it was emitted against. The program depends only on (kernel, ConvParams, buffer capacities), never on
// tensor values, so one Plan can be replayed for every tile of a layer and
// shared by all simulated cores. Execution (Plan.Run) is the thin
// data-only step: bind the inputs (padding, weight packing), write their
// bytes at the planned addresses, replay the cached program, read the
// planned outputs back.
//
// A PlanCache keys Plans by (kernel, ConvParams, channel counts, Spec) so a
// whole-layer run on internal/chip compiles each kernel exactly once;
// hit/miss/compile counters surface in chip.Stats and cmd/davinci-bench.
package ops

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/lint"
	"davinci/internal/lint/perf"
	"davinci/internal/obs"
	"davinci/internal/opt"
	"davinci/internal/tensor"
	"davinci/internal/trace"
)

// Spec is the compile-time environment of a plan: the per-core buffer
// capacities the schedule is sized against, and whether the emitted program
// must pass the static verifier (internal/lint) before it is sealed.
// Specs are comparable and form part of the plan-cache key.
type Spec struct {
	// Buffers holds the core's scratch-pad capacities, normalized so zero
	// values and explicit Ascend 910 defaults key identically.
	Buffers buffer.Config
	// Strict lints the program at compile time (amortizing what
	// aicore.Core.Strict previously paid on every run).
	Strict bool
	// Opt selects the static optimizer level applied when the plan is
	// sealed (internal/opt). The optimized program must pass the
	// translation-validation gate — lint-clean, bit-identical global
	// memory, no cycle regression — or the plan keeps the baseline; either
	// way the outcome is recorded in Plan.Opt. Part of the cache key, so
	// optimized and baseline plans of one shape coexist.
	Opt opt.Level
	// AutoSchedule routes plan compilation through the registered
	// schedule search (internal/sched): the searcher enumerates the
	// kernel's ScheduleParams space, ranks candidates with the static
	// critical-path bound, confirms the frontier with the cycle oracle,
	// and returns the searched schedule only if it beats the hand-tuned
	// default and passes the validation gate. The outcome is recorded in
	// Plan.Auto. Part of the cache key, so searched and default plans of
	// one shape coexist.
	AutoSchedule bool
}

// SpecFor derives the Spec matching an existing core (its buffer
// capacities and strictness), so a plan compiled under it is the program
// the kernel would have emitted against that core.
func SpecFor(core *aicore.Core) Spec {
	return Spec{Buffers: core.Mem.Config(), Strict: core.Strict}
}

func (s Spec) normalized() Spec {
	s.Buffers = s.Buffers.Normalized()
	return s
}

// gmSlot is one global-memory input placement the binder fills at run time.
type gmSlot struct {
	addr, bytes int
}

// gmRead is one global-memory output region read back after replay.
type gmRead struct {
	addr  int
	shape []int
}

// bindFunc turns inputs of the plan's shapes into the bound tensors whose
// bytes land in the plan's GM slots (zero-padding, weight packing, ...).
// It must be pure: plans are shared across goroutines.
type bindFunc func(inputs []*tensor.Tensor) []*tensor.Tensor

// finishFunc post-processes the tensors read from the plan's output
// regions (e.g. unpacking a fractal weight grid). It must be pure.
type finishFunc func(outs []*tensor.Tensor) []*tensor.Tensor

// timingKey identifies one timing context a plan has been timed under.
// Programs are shape-deterministic, so (cost model, serialize) fully
// determine the schedule and the Stats can be memoized.
type timingKey struct {
	cost      isa.CostModel
	serialize bool
}

// Plan is a compiled kernel: the emitted, validated (and, under a strict
// Spec, lint-clean) CCE program together with the buffer-layout metadata
// needed to execute it on data. Plans are immutable after compilation and
// safe for concurrent Run on distinct cores.
type Plan struct {
	// Name is the kernel identity ("maxpool_fwd_im2col", ...).
	Name string
	// Params are the layer parameters the plan was compiled for.
	Params isa.ConvParams
	// Prog is the cached instruction stream. Treat as read-only.
	Prog *cce.Program
	// Perf is the static performance analysis of Prog under the default
	// cost model, computed once at compile time: occupancy lower bound,
	// critical-path upper bound, utilization metrics and perf diagnostics.
	// Under an optimizing Spec it describes the optimized program.
	Perf *perf.Report
	// Opt is the optimizer's report when the Spec requested a level above
	// opt.LevelNone (what each pass rewrote, cycles saved, or why the
	// result was rejected and the baseline kept); nil otherwise.
	Opt *opt.Result
	// Sched is the resolved schedule the lowering executed: every knob
	// canonicalized to a concrete value, so recompiling the kernel with
	// Sched reproduces this plan exactly.
	Sched ScheduleParams
	// Auto is the autoscheduler's report when the Spec requested
	// AutoSchedule (candidates considered/pruned/confirmed, the cycles
	// saved or why the searched schedule was rejected); nil otherwise.
	Auto *AutoSchedReport

	shapes [][]int // the input shapes Run accepts: the catalogue's tile shapes
	slots  []gmSlot
	outs   []gmRead
	gmTop  int      // total GM footprint of the planned layout
	bind   bindFunc // nil when the inputs are bound as they are
	finish finishFunc

	// timings memoizes Prog's data-free Stats (aicore.Time) per timing
	// context, computed once: first runs that race for a context wait for
	// one walk, which is bounded and cannot fail, instead of repeating it.
	timings sync.Map // timingKey -> func() *aicore.Stats (sync.OnceValue)
	// flat returns the flattened functional trace of Prog, built on first
	// use; every run executes it.
	flat func() *aicore.FlatProgram
}

// Outputs returns the number of tensors Run produces.
func (pl *Plan) Outputs() int { return len(pl.outs) }

// Run executes the plan on one core: bind inputs, write them into the
// planned global-memory layout, replay the cached program, and read the
// planned outputs. The core's scratch-pads and global memory are reset to
// the plan's layout, exactly as if the kernel had been freshly compiled on
// a pristine core — which keeps outputs and cycle counts bit-identical to
// the compile-and-run path.
func (pl *Plan) Run(core *aicore.Core, inputs ...*tensor.Tensor) ([]*tensor.Tensor, *aicore.Stats, error) {
	if len(inputs) != len(pl.shapes) {
		return nil, nil, fmt.Errorf("ops: %s: want %d input(s), got %d", pl.Name, len(pl.shapes), len(inputs))
	}
	for i, want := range pl.shapes {
		if !slices.Equal(inputs[i].Shape, want) {
			return nil, nil, fmt.Errorf("ops: %s: input %d has shape %v, want %v", pl.Name, i, inputs[i].Shape, want)
		}
	}
	bound := inputs
	if pl.bind != nil {
		bound = pl.bind(inputs)
	}
	if len(bound) != len(pl.slots) {
		return nil, nil, fmt.Errorf("ops: %s: plan wants %d inputs, got %d", pl.Name, len(pl.slots), len(bound))
	}
	core.Mem.ResetLocal()
	gm := core.Mem.Space(isa.GM)
	gm.Reset()
	if _, err := gm.Alloc(pl.gmTop); err != nil {
		return nil, nil, err
	}
	// Replays see the same pristine global memory a fresh core would: the
	// planned footprint starts zeroed (backward kernels accumulate into
	// it), then the bound inputs land at their planned addresses.
	data := gm.Data()
	clear(data[:pl.gmTop])
	for i, s := range pl.slots {
		if bound[i].Bytes() != s.bytes {
			return nil, nil, fmt.Errorf("ops: %s: input %d is %d bytes, plan expects %d",
				pl.Name, i, bound[i].Bytes(), s.bytes)
		}
		copy(data[s.addr:s.addr+s.bytes], bound[i].Data)
	}

	st, err := pl.replay(core)
	if err != nil {
		return nil, nil, err
	}
	outs := make([]*tensor.Tensor, len(pl.outs))
	for i, o := range pl.outs {
		outs[i] = core.Mem.ReadTensor(isa.GM, o.addr, o.shape...)
	}
	if pl.finish != nil {
		outs = pl.finish(outs)
	}
	return outs, st, nil
}

// replay executes the cached program and returns its Stats. Every run
// executes the flattened functional trace (see aicore.Flatten), whose
// data effects are bit-identical to interpreting the program, and takes
// its Stats from the data-free walk (aicore.Time), memoized per (cost
// model, serialize) context; a traced core's trace is reset first and
// refilled with the walk's entries, so each Run yields one timeline.
func (pl *Plan) replay(core *aicore.Core) (*aicore.Stats, error) {
	if core.Trace != nil {
		core.Trace.Reset()
	}
	if err := core.ExecFlat(pl.flat()); err != nil {
		return nil, err
	}
	key := timingKey{cost: *core.Cost, serialize: core.Serialize}
	v, ok := pl.timings.Load(key)
	if !ok {
		cost, serialize := *core.Cost, core.Serialize
		v, _ = pl.timings.LoadOrStore(key, sync.OnceValue(func() *aicore.Stats {
			return aicore.Time(pl.Prog, &cost, serialize)
		}))
	}
	st := *v.(func() *aicore.Stats)()
	return &st, nil
}

// planner accumulates a plan during compilation. Its layout set
// (buffer.NewLayout) provides the allocation bookkeeping of a core sized
// by the spec, with no memory behind it: a compile places no data, only
// layout.
type planner struct {
	mem *buffer.Set
	pl  *Plan
}

func newPlanner(name string, spec Spec, p isa.ConvParams) *planner {
	return &planner{
		mem: buffer.NewLayout(spec.Buffers),
		pl:  &Plan{Name: name, Params: p},
	}
}

// input reserves a global-memory slot of n bytes for the next bound input
// and returns its address.
func (b *planner) input(n int) (int, error) {
	addr, err := b.mem.Space(isa.GM).Alloc(n)
	if err != nil {
		return 0, err
	}
	b.pl.slots = append(b.pl.slots, gmSlot{addr: addr, bytes: n})
	return addr, nil
}

// output registers the global-memory region at addr as a result tensor of
// the given shape.
func (b *planner) output(addr int, shape ...int) {
	b.pl.outs = append(b.pl.outs, gmRead{addr: addr, shape: shape})
}

// seal validates the emitted program (and lints it under a strict spec),
// applies the spec's optimizer level, records the plan's global-memory
// footprint, and returns the finished immutable plan. Optimization
// happens here — after validation, before the perf analysis — so every
// downstream consumer (replay, perf reports, traces) sees one program.
func (b *planner) seal(prog *cce.Program, spec Spec) (*Plan, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if spec.Strict {
		diags := lint.CheckWith(lint.Options{Caps: spec.Buffers.Capacities(), Mode: lint.SyncImplicit}, prog)
		if errs := lint.Errors(diags); len(errs) > 0 {
			return nil, fmt.Errorf("ops: %s: strict lint: %d error(s), first: %s", prog.Name, len(errs), errs[0])
		}
	}
	if spec.Opt > opt.LevelNone {
		b.pl.Opt = opt.Optimize(prog, opt.Options{Level: spec.Opt, Buffers: spec.Buffers})
		prog = b.pl.Opt.Prog
	}
	b.pl.Prog = prog
	b.pl.flat = sync.OnceValue(func() *aicore.FlatProgram { return aicore.Flatten(prog) })
	b.pl.Perf = perf.Analyze(prog, perf.Options{Caps: spec.Buffers.Capacities()})
	b.pl.gmTop = b.mem.Space(isa.GM).Used()
	return b.pl, nil
}

// PlanKey identifies one compiled plan: program name, layer parameters,
// the convolution channel counts (Co, C) and the compile Spec.
type PlanKey struct {
	Kernel string
	Params isa.ConvParams
	Aux    [2]int
	Spec   Spec
}

// CacheStats is a snapshot of plan-cache counters.
type CacheStats struct {
	// Hits counts lookups served by an already-compiled plan.
	Hits int64
	// Misses counts lookups that triggered a compilation.
	Misses int64
	// Compiled counts plans successfully compiled and retained.
	Compiled int64
}

func (s CacheStats) String() string {
	return fmt.Sprintf("plans: %d compiled, %d hits, %d misses", s.Compiled, s.Hits, s.Misses)
}

// Sub returns the counter deltas since an earlier snapshot.
func (s CacheStats) Sub(o CacheStats) CacheStats {
	return CacheStats{Hits: s.Hits - o.Hits, Misses: s.Misses - o.Misses, Compiled: s.Compiled - o.Compiled}
}

// PlanCache is a concurrency-safe, shape-keyed cache of compiled plans.
// Concurrent lookups of the same key compile once; the losers block until
// the winner's plan (or compile error) is available. Its counters live in
// an obs.Registry (the unified metrics layer), so a cache embedded in a
// larger system — a chip, a benchmark run — reports through the same
// snapshot as the rest of that system's telemetry.
type PlanCache struct {
	entries  sync.Map // PlanKey -> *cacheEntry
	metrics  *obs.Registry
	hits     *obs.Counter
	misses   *obs.Counter
	compiled *obs.Counter
}

type cacheEntry struct {
	once sync.Once
	plan *Plan
	err  error
}

// NewPlanCache creates an empty cache with a private metrics registry.
func NewPlanCache() *PlanCache { return NewPlanCacheOn(obs.NewRegistry()) }

// NewPlanCacheOn creates an empty cache whose counters register in r as
// plan_cache_hits / plan_cache_misses / plan_cache_compiled.
func NewPlanCacheOn(r *obs.Registry) *PlanCache {
	return &PlanCache{
		metrics:  r,
		hits:     r.Counter("plan_cache_hits"),
		misses:   r.Counter("plan_cache_misses"),
		compiled: r.Counter("plan_cache_compiled"),
	}
}

// Metrics returns the registry the cache's counters live in.
func (c *PlanCache) Metrics() *obs.Registry { return c.metrics }

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Compiled: c.compiled.Load()}
}

// Get returns the plan for key, compiling it with compile on first use.
// Compile errors are cached too: shape-dependent failures (tile too large
// for the UB) are as deterministic as the programs themselves.
//
// tc is the caller's tracing context — conventionally a plan_lookup span.
// Get annotates it with outcome=hit|miss and, when this call actually
// compiles, wraps the compile in a plan_compile child span whose context
// is handed to the compile closure (so optimizer and schedule-search
// spans nest under the compile that triggered them).
// The zero trace.Ctx disables all of it at no cost.
func (c *PlanCache) Get(tc trace.Ctx, key PlanKey, compile func(trace.Ctx) (*Plan, error)) (*Plan, error) {
	key.Spec = key.Spec.normalized()
	e := &cacheEntry{}
	if actual, loaded := c.entries.LoadOrStore(key, e); loaded {
		e = actual.(*cacheEntry)
		c.hits.Inc()
		tc.SetAttr("outcome", "hit")
	} else {
		c.misses.Inc()
		tc.SetAttr("outcome", "miss")
	}
	e.once.Do(func() {
		cs := tc.StartSpan("plan_compile", "impl", key.Kernel)
		e.plan, e.err = compile(cs.Ctx())
		if e.err != nil {
			cs.SetAttr("outcome", "error")
		} else {
			cs.SetAttr("outcome", "ok")
			c.compiled.Inc()
			if r := e.plan.Opt; r != nil {
				for _, rw := range r.Rewrites {
					c.metrics.Counter("opt_rewrites", "pass", rw.Pass).Add(int64(rw.Applied))
				}
				if saved := r.Saved(); saved > 0 {
					c.metrics.Counter("opt_cycles_saved").Add(saved)
				}
				if r.Rejected != "" {
					c.metrics.Counter("opt_rejected").Inc()
				}
			}
			if r := e.plan.Opt; r != nil && r.SkippedReschedule != nil {
				c.metrics.Counter("depgraph_budget_exhausted").Inc()
			}
			if a := e.plan.Auto; a != nil {
				c.metrics.Counter("sched_candidates").Add(int64(a.Considered))
				c.metrics.Counter("sched_pruned").Add(int64(a.Pruned))
				if a.NoSearch {
					c.metrics.Counter("sched_nosearch").Inc()
				}
				if a.Accepted {
					c.metrics.Counter("sched_accepted").Inc()
				}
				if saved := a.Saved(); saved > 0 {
					c.metrics.Counter("sched_cycles_saved").Add(saved)
				}
			}
			emitOptSpans(cs.Ctx(), e.plan)
		}
		cs.End()
	})
	return e.plan, e.err
}

// emitOptSpans replays the wall-clock windows the optimizer recorded in a
// finished plan's report as opt_pipeline / opt_pass spans under the
// compile span. The optimizer itself stays trace-free (it records plain
// timestamps); the spans are reconstructed here, at the one place every
// cached compile already flows through.
func emitOptSpans(tc trace.Ctx, pl *Plan) {
	r := pl.Opt
	if !tc.Enabled() || r == nil || r.StartNanos == 0 {
		return
	}
	op := tc.StartSpan("opt_pipeline", "impl", pl.Name)
	op.SetAttr("level", r.Level.String())
	if r.Rejected != "" {
		op.SetAttr("outcome", "rejected")
	} else {
		op.SetAttr("outcome", "ok")
	}
	for _, rw := range r.Rewrites {
		ps := op.Ctx().StartSpan("opt_pass", "pass", rw.Pass)
		ps.SetAttr("applied", strconv.Itoa(rw.Applied))
		ps.SetWall(rw.StartNanos, rw.EndNanos)
		ps.End()
	}
	op.SetWall(r.StartNanos, r.EndNanos)
	op.End()
}

// Plan returns kernel k's plan for d under spec, compiling it
// (Kernel.Compile) at most once per key. The key is the program name,
// the layer parameters, the convolution channel counts and the spec. tc
// is the caller's tracing context (see Get); pass trace.Ctx{} when not
// tracing.
func (c *PlanCache) Plan(tc trace.Ctx, k *Kernel, spec Spec, d Dims) (*Plan, error) {
	key := PlanKey{Kernel: k.Program, Params: d.P, Aux: [2]int{d.Co, d.C}, Spec: spec}
	return c.Get(tc, key, func(ct trace.Ctx) (*Plan, error) { return k.Compile(ct, spec, d) })
}

// MaxPoolForward is Plan for kernel "maxpool_fwd/<variant>".
func (c *PlanCache) MaxPoolForward(tc trace.Ctx, variant string, spec Spec, p isa.ConvParams) (*Plan, error) {
	return c.named(tc, "maxpool_fwd/"+variant, spec, p)
}

// AvgPoolForward is Plan for kernel "avgpool_fwd/<variant>".
func (c *PlanCache) AvgPoolForward(tc trace.Ctx, variant string, spec Spec, p isa.ConvParams) (*Plan, error) {
	return c.named(tc, "avgpool_fwd/"+variant, spec, p)
}

func (c *PlanCache) named(tc trace.Ctx, name string, spec Spec, p isa.ConvParams) (*Plan, error) {
	k, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return c.Plan(tc, k, spec, Dims{P: p})
}
