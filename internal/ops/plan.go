// Plan/bind/execute: every kernel in this package is split into a
// shape-dependent compile step and a data-dependent execute step.
//
// Compilation (the plan* constructors) runs the kernel's scheduling logic —
// band sizing, buffer allocation, CCE emission — against a scratch core
// built from a Spec, and produces a Plan: an immutable, validated
// cce.Program plus the global-memory layout it was emitted against. The
// program depends only on (kernel, ConvParams, buffer capacities), never on
// tensor values, so one Plan can be replayed for every tile of a layer and
// shared by all simulated cores. Execution (Plan.Run) is the thin
// data-only step: bind the inputs (padding, weight packing), write their
// bytes at the planned addresses, replay the cached program, read the
// planned outputs back.
//
// A PlanCache keys Plans by (kernel, ConvParams, aux shape ints, Spec) so a
// whole-layer run on internal/chip compiles each variant exactly once;
// hit/miss/compile counters surface in chip.Stats and cmd/davinci-bench.
package ops

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

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

// bindFunc validates raw kernel inputs and produces the bound tensors whose
// bytes land in the plan's GM slots (identity, zero-padding, weight
// packing, ...). It must be pure: plans are shared across goroutines.
type bindFunc func(inputs []*tensor.Tensor) ([]*tensor.Tensor, error)

// finishFunc post-processes the tensors read from the plan's output
// regions (e.g. unpacking a fractal weight grid). It must be pure.
type finishFunc func(outs []*tensor.Tensor) []*tensor.Tensor

// timingKey identifies one timing context a plan has been scheduled under.
// Programs are shape-deterministic, so (cost model, serialize) fully
// determine the schedule and the cycle counts can be memoized.
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

	slots  []gmSlot
	outs   []gmRead
	gmTop  int // total GM footprint of the planned layout
	bind   bindFunc
	finish finishFunc

	// timings memoizes the deterministic schedule per timing context, so
	// replays after the first skip the scoreboard entirely.
	timings sync.Map // timingKey -> *timingFlight
	// scheduled counts the scoreboard replays run for the memo.
	scheduled atomic.Int64

	// flat lazily caches the flattened functional trace of Prog, used by
	// memoized replays in place of instruction-by-instruction execution.
	flatOnce sync.Once
	flat     *aicore.FlatProgram
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
	bound := inputs
	if pl.bind != nil {
		var err error
		if bound, err = pl.bind(inputs); err != nil {
			return nil, nil, err
		}
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

// timingFlight is the timing memo of one timing context: the first
// plain replay (the leader) runs the scoreboard, and replays arriving
// meanwhile wait on done instead of each running it again. st is set
// before done closes; it stays nil when the leader failed.
type timingFlight struct {
	done chan struct{}
	st   *aicore.Stats
}

// replay executes the cached program, memoizing the deterministic schedule
// per (cost model, serialize) context: the first replay runs the full
// timing scoreboard — once, however many cores replay concurrently (see
// timingFlight) — and later ones only replay a flattened functional trace
// of the program (see aicore.Flatten) whose data effects are bit-identical
// but whose host cost is a fraction of interpreting every instruction.
// Tracing cores always schedule (the trace needs real start/end times);
// the trace is reset first so each Run yields exactly one timeline instead
// of entries accumulating without bound across replays.
func (pl *Plan) replay(core *aicore.Core) (*aicore.Stats, error) {
	if core.ReplayWith != nil {
		// A replay hook (fault injection) substitutes its own execution of
		// the cached program; its timing is not the plan's deterministic
		// schedule, so nothing is memoized.
		return core.ReplayWith(pl.Prog)
	}
	key := timingKey{cost: *core.Cost, serialize: core.Serialize}
	if core.Trace != nil || core.OnInstr != nil {
		// The flattened fast path bypasses per-instruction hooks, so an
		// armed OnInstr (fault injection) forces interpretation.
		if core.Trace != nil {
			core.Trace.Reset()
		}
		st, err := core.Replay(pl.Prog)
		if err == nil && core.OnInstr == nil {
			done := make(chan struct{})
			close(done)
			memo := *st
			pl.timings.LoadOrStore(key, &timingFlight{done: done, st: &memo})
		}
		return st, err
	}
	for {
		f := &timingFlight{done: make(chan struct{})}
		v, loaded := pl.timings.LoadOrStore(key, f)
		if !loaded {
			return pl.lead(core, key, f)
		}
		f = v.(*timingFlight)
		select {
		case <-f.done:
		case <-core.Cancel:
			return nil, fmt.Errorf("ops: %s: awaiting the first replay: %w", pl.Name, aicore.ErrInterrupted)
		}
		if f.st != nil {
			pl.flatOnce.Do(func() { pl.flat = aicore.Flatten(pl.Prog) })
			if err := core.ExecFlat(pl.flat); err != nil {
				return nil, err
			}
			st := *f.st
			return &st, nil
		}
		// The leader failed; retry, leading if no one else does.
	}
}

// lead runs the scoreboard replay for flight f and publishes its timing.
// On failure (an error, an interrupt or a panic) it withdraws f and
// wakes the waiters, which retry rather than wait forever.
func (pl *Plan) lead(core *aicore.Core, key timingKey, f *timingFlight) (*aicore.Stats, error) {
	defer func() {
		if f.st == nil {
			pl.timings.CompareAndDelete(key, f)
		}
		close(f.done)
	}()
	pl.scheduled.Add(1)
	st, err := core.Replay(pl.Prog)
	if err != nil {
		return nil, err
	}
	memo := *st
	f.st = &memo
	return st, nil
}

// planner accumulates a plan during compilation. Its scratch core provides
// the same allocation bookkeeping the kernels previously did against the
// caller's core — but with no data placed, only layout.
type planner struct {
	core *aicore.Core
	pl   *Plan
}

func newPlanner(name string, spec Spec, p isa.ConvParams) *planner {
	return &planner{
		core: aicore.New(spec.Buffers, nil),
		pl:   &Plan{Name: name, Params: p},
	}
}

// input reserves a global-memory slot of n bytes for the next bound input
// and returns its address.
func (b *planner) input(n int) (int, error) {
	addr, err := b.core.Mem.Space(isa.GM).Alloc(n)
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
	b.pl.Perf = perf.Analyze(prog, perf.Options{Caps: spec.Buffers.Capacities()})
	b.pl.gmTop = b.core.Mem.Space(isa.GM).Used()
	return b.pl, nil
}

// PlanKey identifies one compiled plan: kernel name, layer parameters, any
// extra shape integers (convolution channel counts), and the compile Spec.
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
	// done publishes plan/err to readers that do not go through once.Do
	// (PlanCache.Plans ranges concurrently with in-flight compiles).
	done atomic.Bool
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

// Plans returns every successfully compiled plan in the cache, sorted by
// kernel name and layer parameters for deterministic reporting
// (chip.Stats and cmd/davinci-bench surface their perf reports).
func (c *PlanCache) Plans() []*Plan {
	var plans []*Plan
	c.entries.Range(func(_, v any) bool {
		e := v.(*cacheEntry)
		if e.done.Load() && e.err == nil {
			plans = append(plans, e.plan)
		}
		return true
	})
	sort.Slice(plans, func(i, j int) bool {
		if plans[i].Name != plans[j].Name {
			return plans[i].Name < plans[j].Name
		}
		return fmt.Sprint(plans[i].Params) < fmt.Sprint(plans[j].Params)
	})
	return plans
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
		e.done.Store(true)
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

// plannerFunc is a schedule-parameterized lowering: it compiles (spec, p)
// under the given ScheduleParams, whose zero value reproduces the
// hand-tuned plan bit-identically.
type plannerFunc func(Spec, isa.ConvParams, ScheduleParams) (*Plan, error)

// kernelFamilies is the unified dispatch table of every searchable kernel
// family and its lowering modes. The lowering mode is itself a schedule
// axis: every variant of a family shares one observable contract (same
// inputs, same outputs), so the autoscheduler may swap it.
var kernelFamilies = map[string]map[string]plannerFunc{
	"maxpool_fwd": {
		"standard":  planMaxPoolFwdStandard,
		"im2col":    planMaxPoolFwdIm2col,
		"expansion": planMaxPoolFwdExpansion,
		"xysplit":   planMaxPoolFwdXYSplit,
	},
	"maxpool_fwd_argmax": {
		"standard": planMaxPoolFwdArgmaxStandard,
		"im2col":   planMaxPoolFwdArgmaxIm2col,
	},
	"maxpool_bwd": {
		"standard": planMaxPoolBwdStandard,
		"col2im":   planMaxPoolBwdCol2im,
	},
	"avgpool_fwd": {
		"standard": planAvgPoolFwdStandard,
		"im2col":   planAvgPoolFwdIm2col,
		"cube":     planAvgPoolFwdCube,
	},
	"avgpool_bwd": {
		"standard": planAvgPoolBwdStandard,
		"col2im":   planAvgPoolBwdCol2im,
	},
}

// KernelFamilies returns the searchable kernel family names, sorted.
func KernelFamilies() []string {
	names := make([]string, 0, len(kernelFamilies))
	for f := range kernelFamilies {
		names = append(names, f)
	}
	sort.Strings(names)
	return names
}

// KernelVariants returns the lowering modes of a family, sorted; nil for
// an unknown family.
func KernelVariants(family string) []string {
	table, ok := kernelFamilies[family]
	if !ok {
		return nil
	}
	variants := make([]string, 0, len(table))
	for v := range table {
		variants = append(variants, v)
	}
	sort.Strings(variants)
	return variants
}

func planVariant(tc trace.Ctx, family, kind, variant string, spec Spec, p isa.ConvParams) (*Plan, error) {
	fn, ok := kernelFamilies[family][variant]
	if !ok {
		return nil, fmt.Errorf("ops: unknown %s variant %q", kind, variant)
	}
	if spec.AutoSchedule {
		return autoPlan(tc, family+"/"+variant, spec, p)
	}
	return fn(spec, p, ScheduleParams{Mode: variant})
}

// CompileKernel compiles kernel ("family/variant", e.g.
// "maxpool_fwd/im2col") under an explicit schedule. A non-empty sp.Mode
// overrides the variant — the lowering mode is a schedule axis. The
// search never recurses: AutoSchedule is forced off.
func CompileKernel(kernel string, spec Spec, p isa.ConvParams, sp ScheduleParams) (*Plan, error) {
	family, variant, ok := strings.Cut(kernel, "/")
	if !ok {
		return nil, fmt.Errorf("ops: kernel %q: want \"family/variant\"", kernel)
	}
	table, tok := kernelFamilies[family]
	if !tok {
		return nil, fmt.Errorf("ops: unknown kernel family %q (have %v)", family, KernelFamilies())
	}
	if sp.Mode != "" {
		variant = sp.Mode
	}
	fn, fok := table[variant]
	if !fok {
		return nil, fmt.Errorf("ops: unknown %s variant %q (have %v)", family, variant, KernelVariants(family))
	}
	spec.AutoSchedule = false
	sp.Mode = variant
	return fn(spec, p, sp)
}

// PlanMaxPoolForward compiles a forward Maxpool variant ("standard",
// "im2col", "expansion", "xysplit"). Run takes (in) and returns (out).
func PlanMaxPoolForward(variant string, spec Spec, p isa.ConvParams) (*Plan, error) {
	return planVariant(trace.Ctx{}, "maxpool_fwd", "forward", variant, spec, p)
}

// PlanMaxPoolForwardArgmax compiles a Fig. 7b variant ("standard",
// "im2col"). Run takes (in) and returns (out, mask).
func PlanMaxPoolForwardArgmax(variant string, spec Spec, p isa.ConvParams) (*Plan, error) {
	return planVariant(trace.Ctx{}, "maxpool_fwd_argmax", "argmax", variant, spec, p)
}

// PlanMaxPoolBackward compiles a Fig. 7c variant ("standard", "col2im").
// Run takes (mask, grad) and returns (dx).
func PlanMaxPoolBackward(variant string, spec Spec, p isa.ConvParams) (*Plan, error) {
	return planVariant(trace.Ctx{}, "maxpool_bwd", "backward", variant, spec, p)
}

// PlanAvgPoolForward compiles an Avgpool forward variant ("standard",
// "im2col", "cube"). Run takes (in) and returns (out).
func PlanAvgPoolForward(variant string, spec Spec, p isa.ConvParams) (*Plan, error) {
	return planVariant(trace.Ctx{}, "avgpool_fwd", "avgpool", variant, spec, p)
}

// Cached plan constructors: each compiles at most once per (key, spec) and
// then serves the shared immutable plan. tc is the caller's tracing
// context (see Get); pass trace.Ctx{} when not tracing.

// MaxPoolForward is the cached PlanMaxPoolForward.
func (c *PlanCache) MaxPoolForward(tc trace.Ctx, variant string, spec Spec, p isa.ConvParams) (*Plan, error) {
	return c.Get(tc, PlanKey{Kernel: "maxpool_fwd_" + variant, Params: p, Spec: spec}, func(ct trace.Ctx) (*Plan, error) {
		return planVariant(ct, "maxpool_fwd", "forward", variant, spec, p)
	})
}

// MaxPoolForwardArgmax is the cached PlanMaxPoolForwardArgmax.
func (c *PlanCache) MaxPoolForwardArgmax(tc trace.Ctx, variant string, spec Spec, p isa.ConvParams) (*Plan, error) {
	return c.Get(tc, PlanKey{Kernel: "maxpool_fwd_argmax_" + variant, Params: p, Spec: spec}, func(ct trace.Ctx) (*Plan, error) {
		return planVariant(ct, "maxpool_fwd_argmax", "argmax", variant, spec, p)
	})
}

// MaxPoolBackward is the cached PlanMaxPoolBackward.
func (c *PlanCache) MaxPoolBackward(tc trace.Ctx, variant string, spec Spec, p isa.ConvParams) (*Plan, error) {
	return c.Get(tc, PlanKey{Kernel: "maxpool_bwd_" + variant, Params: p, Spec: spec}, func(ct trace.Ctx) (*Plan, error) {
		return planVariant(ct, "maxpool_bwd", "backward", variant, spec, p)
	})
}

// AvgPoolForward is the cached PlanAvgPoolForward.
func (c *PlanCache) AvgPoolForward(tc trace.Ctx, variant string, spec Spec, p isa.ConvParams) (*Plan, error) {
	return c.Get(tc, PlanKey{Kernel: "avgpool_fwd_" + variant, Params: p, Spec: spec}, func(ct trace.Ctx) (*Plan, error) {
		return planVariant(ct, "avgpool_fwd", "avgpool", variant, spec, p)
	})
}

// AvgPoolBackward is the cached PlanAvgPoolBackward.
func (c *PlanCache) AvgPoolBackward(tc trace.Ctx, spec Spec, p isa.ConvParams, useCol2im bool) (*Plan, error) {
	kernel := "avgpool_bwd_standard"
	if useCol2im {
		kernel = "avgpool_bwd_col2im"
	}
	return c.Get(tc, PlanKey{Kernel: kernel, Params: p, Spec: spec}, func(trace.Ctx) (*Plan, error) {
		return PlanAvgPoolBackward(spec, p, useCol2im)
	})
}

// Conv2D is the cached PlanConv2D for co x c logical channels.
func (c *PlanCache) Conv2D(tc trace.Ctx, spec Spec, p isa.ConvParams, co, channels int) (*Plan, error) {
	return c.Get(tc, PlanKey{Kernel: "conv2d_im2col_cube", Params: p, Aux: [2]int{co, channels}, Spec: spec}, func(trace.Ctx) (*Plan, error) {
		return PlanConv2D(spec, p, co, channels)
	})
}

// Conv2DBackwardData is the cached PlanConv2DBackwardData.
func (c *PlanCache) Conv2DBackwardData(tc trace.Ctx, spec Spec, p isa.ConvParams, co, channels int) (*Plan, error) {
	return c.Get(tc, PlanKey{Kernel: "conv2d_bwd_data", Params: p, Aux: [2]int{co, channels}, Spec: spec}, func(trace.Ctx) (*Plan, error) {
		return PlanConv2DBackwardData(spec, p, co, channels)
	})
}

// Conv2DBackwardWeights is the cached PlanConv2DBackwardWeights.
func (c *PlanCache) Conv2DBackwardWeights(tc trace.Ctx, spec Spec, p isa.ConvParams, co, channels int) (*Plan, error) {
	return c.Get(tc, PlanKey{Kernel: "conv2d_bwd_weights", Params: p, Aux: [2]int{co, channels}, Spec: spec}, func(trace.Ctx) (*Plan, error) {
		return PlanConv2DBackwardWeights(spec, p, co, channels)
	})
}
