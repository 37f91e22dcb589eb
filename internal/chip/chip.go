// Package chip models a whole Ascend-910-class device: a set of AI Cores
// sharing global memory. The outer (N, C1) loops of pooling are
// parallelized between the AI Cores available on the device (paper §IV-A:
// "the outer loops are parallelized between the AI Cores"), each core
// processing whole (H, W, C0) tiles; chip time is the maximum over cores.
//
// Each simulated core is independent, so the host runs tiles on a pool of
// at most GOMAXPROCS workers, each driving one simulated core at a time
// (executor.go). Kernels are compiled once per shape through the chip's
// plan cache (ops.PlanCache) before any tile runs; every core then
// replays the same immutable plan on its own tiles, so host wall time no
// longer scales with re-compiling the schedule per tile.
package chip

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/lint/perf"
	"davinci/internal/obs"
	"davinci/internal/ops"
	"davinci/internal/opt"
	"davinci/internal/ref"
	_ "davinci/internal/sched" // registers the autoscheduler Config.AutoSchedule dispatches to
	"davinci/internal/tensor"
	"davinci/internal/trace"
)

// DefaultCores is the AI Core count of the Ascend 910 (§VI).
const DefaultCores = 32

// Config describes the simulated device.
type Config struct {
	// Cores is the number of AI Cores; 0 means DefaultCores.
	Cores int
	// Buffers configures each core's scratch-pads; zero fields take the
	// Ascend 910 defaults.
	Buffers buffer.Config
	// Cost overrides the cycle-cost model; nil takes the calibrated
	// default.
	Cost *isa.CostModel
	// Serialize disables intra-core pipeline overlap (ablation).
	Serialize bool
	// Opt selects the static optimizer level (internal/opt) applied to
	// every plan the chip compiles; 0 (opt.LevelNone) runs the kernels'
	// emitted programs untouched.
	Opt opt.Level
	// AutoSchedule routes every kernel compilation through the schedule
	// search (internal/sched): each plan the chip caches is the searched
	// winner when it beats the hand-tuned schedule under the cycle oracle
	// and passes the validation gate, the default otherwise. The sched_*
	// counters land in Metrics via the plan cache.
	AutoSchedule bool
	// Strict lints every compiled program before it is sealed
	// (ops.Spec.Strict), so plans this chip caches are the verified
	// ones. The serving layer turns this on: admission-time compiles pay
	// the concrete lint once per shape and dispatch reuses the plans.
	Strict bool
	// Plans, when non-nil, is a shared plan cache used instead of a
	// chip-private one. A fleet of identically-specced chips shares one
	// cache so a shape compiled at admission time (or on any chip) is a
	// hit on every other chip.
	Plans *ops.PlanCache
	// Metrics is the registry the chip's counters (and its plan cache's)
	// register in; nil gives the chip a private registry. Benchmarks pass
	// a shared registry so one snapshot covers every device they build.
	Metrics *obs.Registry
	// Context, when non-nil, bounds every run: cancelling it interrupts
	// all in-flight cores and fails the run with an error matching both
	// the context's error and aicore.ErrInterrupted.
	Context context.Context
	// Resilience configures the tile executor's fault tolerance (watchdog,
	// retry/requeue, graceful degradation, fault injection). The zero
	// value runs each tile once and fails the run on the first failure.
	Resilience Resilience
	// Trace is the span context every run of this chip nests under: each
	// entry point opens a chip_run span with a plan_lookup child (the
	// plan cache annotates it hit/miss and hangs plan_compile under it on
	// a miss), and the tile executor emits one tile_exec span per tile
	// attempt, causally linked to the plan_lookup span. The zero value
	// disables tracing at zero cost.
	Trace trace.Ctx
	// CaptureTrace arms instruction tracing on tile (0, 0) and stashes
	// the captured pipe schedule in Stats.TileTrace, so one run can be
	// rendered cycle-accurately alongside the host spans in a merged
	// Chrome trace (obs.WriteChromeTraceWithSpans).
	CaptureTrace bool
}

// Chip is a simulated multi-core device. Each chip owns a plan cache:
// kernels are compiled once per (variant, shape) and replayed by every
// core.
type Chip struct {
	cfg     Config
	spec    ops.Spec
	plans   *ops.PlanCache
	metrics *obs.Registry
	// cores is the free list of clean worker cores, shared by every view
	// of the chip (WithContext, WithTrace).
	cores *corePool
	// Per-tile instruments, registered once so runTiles' host workers
	// update them lock-free.
	tiles        *obs.Counter
	tileCycles   *obs.Histogram
	tileInstrs   *obs.Counter
	bytesIn      *obs.Counter
	bytesOut     *obs.Counter
	tileWall     *obs.Histogram
	tileAttempts *obs.Histogram
	// Resilience instruments (executor.go).
	tileRetries   *obs.Counter
	tileRequeues  *obs.Counter
	tilesDegraded *obs.Counter
	watchdogTrips *obs.Counter
	coresFailed   *obs.Counter
	tilePanics    *obs.Counter
	backoffCycles *obs.Counter
}

// New creates a chip. Zero-valued config fields take Ascend 910 defaults.
func New(cfg Config) *Chip {
	if cfg.Cores == 0 {
		cfg.Cores = DefaultCores
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Resilience.Injector != nil {
		cfg.Resilience.Injector.Bind(cfg.Metrics)
	}
	plans := cfg.Plans
	if plans == nil {
		plans = ops.NewPlanCacheOn(cfg.Metrics)
	}
	return &Chip{
		cfg:           cfg,
		spec:          ops.Spec{Buffers: cfg.Buffers, Strict: cfg.Strict, Opt: cfg.Opt, AutoSchedule: cfg.AutoSchedule},
		plans:         plans,
		metrics:       cfg.Metrics,
		cores:         &corePool{},
		tiles:         cfg.Metrics.Counter("chip_tiles"),
		tileCycles:    cfg.Metrics.Histogram("chip_tile_cycles", nil),
		tileInstrs:    cfg.Metrics.Counter("chip_tile_instrs"),
		bytesIn:       cfg.Metrics.Counter("chip_bytes_in"),
		bytesOut:      cfg.Metrics.Counter("chip_bytes_out"),
		tileWall:      cfg.Metrics.Histogram("chip_tile_wall_nanos", obs.DefaultNanoBounds()),
		tileAttempts:  cfg.Metrics.Histogram("chip_tile_attempts", obs.DefaultAttemptBounds()),
		tileRetries:   cfg.Metrics.Counter("chip_tile_retries"),
		tileRequeues:  cfg.Metrics.Counter("chip_tile_requeues"),
		tilesDegraded: cfg.Metrics.Counter("chip_tiles_degraded"),
		watchdogTrips: cfg.Metrics.Counter("chip_watchdog_trips"),
		coresFailed:   cfg.Metrics.Counter("chip_cores_failed"),
		tilePanics:    cfg.Metrics.Counter("chip_tile_panics"),
		backoffCycles: cfg.Metrics.Counter("chip_retry_backoff_cycles"),
	}
}

// Cores returns the AI Core count.
func (c *Chip) Cores() int { return c.cfg.Cores }

// Spec returns the compile spec this chip's plans are keyed by. A caller
// that compiles plans ahead of dispatch (the serving layer's admission
// fast-path) uses this spec against the shared cache so its compiles are
// cache hits at dispatch time.
func (c *Chip) Spec() ops.Spec { return c.spec }

// WithContext returns a view of the chip whose runs are bounded by ctx:
// cancelling it interrupts all in-flight cores through the core.Cancel
// path. The view shares the chip's plan cache, metrics and config; the
// serving layer uses one view per dispatched batch so a batch whose
// requests have all expired can be cancelled without touching the rest of
// the fleet.
func (c *Chip) WithContext(ctx context.Context) *Chip {
	view := *c
	view.cfg.Context = ctx
	return &view
}

// WithTrace returns a view of the chip whose runs nest under tc instead
// of the chip's configured span context — one serving batch parents the
// chip_run it performs under its serve_batch span.
func (c *Chip) WithTrace(tc trace.Ctx) *Chip {
	view := *c
	view.cfg.Trace = tc
	return &view
}

// PlanStats returns a snapshot of the chip's plan-cache counters.
func (c *Chip) PlanStats() ops.CacheStats { return c.plans.Stats() }

// Metrics returns the registry holding the chip's counters (tile counts,
// per-tile cycle histogram, GM traffic) and its plan cache's counters.
func (c *Chip) Metrics() *obs.Registry { return c.metrics }

// PlanPerf pairs a compiled plan's identity with its static performance
// analysis (internal/lint/perf), computed once at plan time.
type PlanPerf struct {
	Name   string
	Params isa.ConvParams
	Report *perf.Report
}

// perfReports snapshots the static analysis of every plan compiled so
// far, sorted by kernel name then parameters.
func (c *Chip) perfReports() []PlanPerf {
	plans := c.plans.Plans()
	reports := make([]PlanPerf, 0, len(plans))
	for _, pl := range plans {
		reports = append(reports, PlanPerf{Name: pl.Name, Params: pl.Params, Report: pl.Perf})
	}
	return reports
}

// corePool keeps the host cores that finished a run clean, so the next
// run reuses them instead of allocating and zeroing ~2.7 MB of
// scratch-pads and global memory per worker. It holds at most GOMAXPROCS
// cores, the most one run's workers use. Reuse needs no reset: every
// plan run resets the core to the plan's layout, and no plan reads
// scratch-pad bytes it did not write (TestCoreReuseSafeForEveryKernel).
type corePool struct {
	mu   sync.Mutex
	free []*aicore.Core
}

// getCore returns a core from the free list, or a new one.
func (c *Chip) getCore() *aicore.Core {
	p := c.cores
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		core := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return core
	}
	p.mu.Unlock()
	core := aicore.New(c.cfg.Buffers, c.cfg.Cost)
	core.Serialize = c.cfg.Serialize
	return core
}

// putCore returns a clean core to the free list with its per-attempt
// hooks, Cancel channel and Trace cleared, or drops it when the list is
// full. Callers pass only cores whose last attempt succeeded; a failed
// attempt may have left corrupted scratch-pads.
func (c *Chip) putCore(core *aicore.Core) {
	core.Trace = nil
	core.Cancel = nil
	core.OnProgram = nil
	core.OnInstr = nil
	core.ReplayWith = nil
	core.HangOnDeadlock = false
	p := c.cores
	p.mu.Lock()
	if len(p.free) < runtime.GOMAXPROCS(0) {
		p.free = append(p.free, core)
	}
	p.mu.Unlock()
}

// Stats aggregates a chip-level run.
type Stats struct {
	// Cycles is the device makespan: the busiest core's cycle count.
	Cycles int64
	// CoreCycles holds each core's total cycles (length Cores).
	CoreCycles []int64
	// Tiles is the number of (n, c1) tiles processed.
	Tiles int
	// Work sums per-pipe activity over all cores.
	Work aicore.Stats
	// Plans snapshots the chip's cumulative plan-cache counters at the
	// end of the run (compiled programs, cache hits, misses).
	Plans ops.CacheStats
	// Perf holds the static performance analysis of every plan compiled
	// through the chip's cache so far, sorted by kernel name then
	// parameters.
	Perf []PlanPerf
	// Metrics snapshots the chip's registry (tile histogram, GM traffic,
	// plan-cache counters) at the end of the run.
	Metrics *obs.Snapshot
	// Degraded lists the tiles that fell back to the host-side golden
	// model after exhausting their hardware retries (Resilience.Degrade),
	// sorted by (N, C1). Empty on a clean run.
	Degraded []DegradedTile
	// TileTrace is tile (0, 0)'s captured pipe schedule when
	// Config.CaptureTrace was set (the successful attempt's); nil
	// otherwise.
	TileTrace *aicore.Trace
}

func (s *Stats) String() string {
	return fmt.Sprintf("chip cycles=%d tiles=%d instrs=%d %s", s.Cycles, s.Tiles, s.Work.Instrs, s.Plans)
}

// tileResult carries one tile's outputs back to the assembler.
type tileResult struct {
	n, c1 int
	outs  []*tensor.Tensor
	stats *aicore.Stats
}

// tileRun executes one (n, c1) tile on a simulated core.
type tileRun func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error)

// tileFallback computes one tile on the host-side golden model
// (internal/ref), for graceful degradation when hardware retries are
// exhausted.
type tileFallback func(ni, ci int) ([]*tensor.Tensor, error)

// runScope threads one entry-point invocation's trace context through
// the tile executors: the chip_run span, the plan_lookup span's ID (the
// causal anchor every tile_exec span links back to), and the capture
// slot Stats.TileTrace is filled from. All methods are safe on a scope
// whose tracing is disabled (and, for the executors' benefit, on a nil
// scope).
type runScope struct {
	c      *Chip
	kernel string
	span   *trace.ActiveSpan // chip_run; nil when tracing is off
	planID trace.SpanID      // plan_lookup span; 0 when tracing is off

	mu        sync.Mutex
	tileTrace *aicore.Trace
}

// beginRun opens the chip_run span for one entry-point invocation.
func (c *Chip) beginRun(kernel string) *runScope {
	return &runScope{c: c, kernel: kernel, span: c.cfg.Trace.StartSpan("chip_run", "impl", kernel)}
}

func (rs *runScope) ctx() trace.Ctx {
	if rs == nil {
		return trace.Ctx{}
	}
	return rs.span.Ctx()
}

// plan wraps the plan-cache lookup in a plan_lookup span. The cache
// sets outcome=hit|miss on it and nests the plan_compile span (with its
// opt/sched children) under it on a miss.
func (rs *runScope) plan(get func(trace.Ctx) (*ops.Plan, error)) (*ops.Plan, error) {
	ls := rs.ctx().StartSpan("plan_lookup", "impl", rs.kernel)
	pl, err := get(ls.Ctx())
	if ls != nil {
		rs.planID = ls.ID()
		ls.End()
	}
	return pl, err
}

// tileSpan opens the tile_exec span of attempt j on simulated core k,
// linked to the run's plan_lookup span and, for a retry, to the failed
// attempt it replaces. Returns nil when tracing is off.
func (rs *runScope) tileSpan(k int, j tileAttempt) *trace.ActiveSpan {
	if rs == nil {
		return nil
	}
	s := rs.ctx().StartSpan("tile_exec", "core", strconv.Itoa(k), "n", strconv.Itoa(j.n),
		"c1", strconv.Itoa(j.c1), "attempt", strconv.Itoa(j.attempt))
	if s != nil {
		s.Link("plan", rs.planID)
		if j.prevSpan != 0 {
			s.Link("retry_of", j.prevSpan)
		}
	}
	return s
}

// stashTrace keeps the first captured tile schedule for Stats.TileTrace.
func (rs *runScope) stashTrace(tr *aicore.Trace) {
	if rs == nil || tr == nil {
		return
	}
	rs.mu.Lock()
	if rs.tileTrace == nil {
		rs.tileTrace = tr
	}
	rs.mu.Unlock()
}

// capturing reports whether tile (n, c1)'s schedule should be captured
// for Stats.TileTrace.
func (rs *runScope) capturing(n, c1 int) bool {
	return rs != nil && rs.c.cfg.CaptureTrace && n == 0 && c1 == 0
}

// end closes the chip_run span with the run's outcome and attaches the
// captured tile schedule to the outgoing stats.
func (rs *runScope) end(st *Stats, err error) {
	if st != nil {
		rs.mu.Lock()
		st.TileTrace = rs.tileTrace
		rs.mu.Unlock()
	}
	if rs.span == nil {
		return
	}
	if err != nil {
		rs.span.SetAttr("outcome", "error")
	} else {
		rs.span.SetAttr("outcome", "ok")
	}
	rs.span.End()
}

func checkFractalInput(in *tensor.Tensor) (n, c1 int, err error) {
	if len(in.Shape) != 5 || in.Shape[4] != tensor.C0 {
		return 0, 0, fmt.Errorf("chip: want an NC1HWC0 tensor, got %v", in.Shape)
	}
	return in.Shape[0], in.Shape[1], nil
}

// MaxPoolForward runs a forward Maxpool variant ("standard", "im2col",
// "expansion" or "xysplit") over a full NC1HWC0 tensor. The variant is
// compiled once through the chip's plan cache, then replayed per tile.
func (c *Chip) MaxPoolForward(variant string, in *tensor.Tensor, p isa.ConvParams) (out *tensor.Tensor, st *Stats, err error) {
	rs := c.beginRun("maxpool_fwd_" + variant)
	defer func() { rs.end(st, err) }()
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	pl, err := rs.plan(func(ct trace.Ctx) (*ops.Plan, error) {
		return c.plans.MaxPoolForward(ct, variant, c.spec, p)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	return c.poolForward(rs, pl, in, p, func(ni, ci int) ([]*tensor.Tensor, error) {
		return []*tensor.Tensor{ref.MaxPoolForward(tensor.SliceC1(in, ni, ci), p)}, nil
	})
}

// AvgPoolForward runs a forward Avgpool variant ("standard", "im2col" or
// "cube").
func (c *Chip) AvgPoolForward(variant string, in *tensor.Tensor, p isa.ConvParams) (out *tensor.Tensor, st *Stats, err error) {
	rs := c.beginRun("avgpool_fwd_" + variant)
	defer func() { rs.end(st, err) }()
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	pl, err := rs.plan(func(ct trace.Ctx) (*ops.Plan, error) {
		return c.plans.AvgPoolForward(ct, variant, c.spec, p)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	return c.poolForward(rs, pl, in, p, func(ni, ci int) ([]*tensor.Tensor, error) {
		return []*tensor.Tensor{ref.AvgPoolForward(tensor.SliceC1(in, ni, ci), p)}, nil
	})
}

func (c *Chip) poolForward(rs *runScope, pl *ops.Plan, in *tensor.Tensor, p isa.ConvParams, fb tileFallback) (*tensor.Tensor, *Stats, error) {
	n, c1, err := checkFractalInput(in)
	if err != nil {
		return nil, nil, err
	}
	oh, ow := p.OutDims()
	out := tensor.New(n, c1, oh, ow, tensor.C0)
	results, stats, err := c.runTiles(rs, n, c1, func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
		return pl.Run(core, tensor.SliceC1(in, ni, ci))
	}, fb)
	if err != nil {
		return nil, nil, err
	}
	for _, rs := range results {
		for _, r := range rs {
			tensor.StoreC1(out, r.outs[0], r.n, r.c1)
		}
	}
	return out, stats, nil
}

// MaxPoolForwardArgmax runs a Fig. 7b variant ("standard" or "im2col"),
// returning the pooled output and the argmax mask in the Im2Col shape
// (N, C1, Kh, Kw, OhOw16, C0).
func (c *Chip) MaxPoolForwardArgmax(variant string, in *tensor.Tensor, p isa.ConvParams) (out, mask *tensor.Tensor, st *Stats, err error) {
	rs := c.beginRun("maxpool_fwd_argmax_" + variant)
	defer func() { rs.end(st, err) }()
	if err := p.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("chip: %w", err)
	}
	pl, err := rs.plan(func(ct trace.Ctx) (*ops.Plan, error) {
		return c.plans.MaxPoolForwardArgmax(ct, variant, c.spec, p)
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("chip: %w", err)
	}
	n, c1, err := checkFractalInput(in)
	if err != nil {
		return nil, nil, nil, err
	}
	oh, ow := p.OutDims()
	out = tensor.New(n, c1, oh, ow, tensor.C0)
	mask = tensor.New(n, c1, p.Kh, p.Kw, p.PaddedPatches(), tensor.C0)
	results, stats, err := c.runTiles(rs, n, c1, func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
		return pl.Run(core, tensor.SliceC1(in, ni, ci))
	}, func(ni, ci int) ([]*tensor.Tensor, error) {
		tile := tensor.SliceC1(in, ni, ci)
		return []*tensor.Tensor{ref.MaxPoolForward(tile, p), ref.ArgmaxMask(tile, p)}, nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	for _, rs := range results {
		for _, r := range rs {
			tensor.StoreC1(out, r.outs[0], r.n, r.c1)
			tensor.StoreOuter2(mask, r.outs[1], r.n, r.c1)
		}
	}
	return out, mask, stats, nil
}

// MaxPoolBackward runs a Fig. 7c variant ("standard" or "col2im"). mask is
// the saved argmax mask; grad has the output shape (N, C1, Oh, Ow, C0).
// The result has the input shape (N, C1, Ih, Iw, C0).
func (c *Chip) MaxPoolBackward(variant string, mask, grad *tensor.Tensor, p isa.ConvParams) (out *tensor.Tensor, st *Stats, err error) {
	rs := c.beginRun("maxpool_bwd_" + variant)
	defer func() { rs.end(st, err) }()
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	pl, err := rs.plan(func(ct trace.Ctx) (*ops.Plan, error) {
		return c.plans.MaxPoolBackward(ct, variant, c.spec, p)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	if len(mask.Shape) != 6 {
		return nil, nil, fmt.Errorf("chip: want a 6-d argmax mask, got %v", mask.Shape)
	}
	n, c1 := mask.Shape[0], mask.Shape[1]
	out = tensor.New(n, c1, p.Ih, p.Iw, tensor.C0)
	results, stats, err := c.runTiles(rs, n, c1, func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
		return pl.Run(core, tensor.SliceOuter2(mask, ni, ci), tensor.SliceC1(grad, ni, ci))
	}, func(ni, ci int) ([]*tensor.Tensor, error) {
		mg := ref.MaxPoolBackward(tensor.SliceOuter2(mask, ni, ci), tensor.SliceC1(grad, ni, ci), p, p.Ih, p.Iw)
		return []*tensor.Tensor{mg}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, rs := range results {
		for _, r := range rs {
			tensor.StoreC1(out, r.outs[0], r.n, r.c1)
		}
	}
	return out, stats, nil
}

// AvgPoolBackward propagates Avgpool gradients (useCol2im selects the
// accelerated merge, §V-C).
func (c *Chip) AvgPoolBackward(grad *tensor.Tensor, p isa.ConvParams, useCol2im bool) (out *tensor.Tensor, st *Stats, err error) {
	kernel := "avgpool_bwd_standard"
	if useCol2im {
		kernel = "avgpool_bwd_col2im"
	}
	rs := c.beginRun(kernel)
	defer func() { rs.end(st, err) }()
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	pl, err := rs.plan(func(ct trace.Ctx) (*ops.Plan, error) {
		return c.plans.AvgPoolBackward(ct, c.spec, p, useCol2im)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	n, c1, err := checkFractalInput(grad)
	if err != nil {
		return nil, nil, err
	}
	out = tensor.New(n, c1, p.Ih, p.Iw, tensor.C0)
	results, stats, err := c.runTiles(rs, n, c1, func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
		return pl.Run(core, tensor.SliceC1(grad, ni, ci))
	}, func(ni, ci int) ([]*tensor.Tensor, error) {
		return []*tensor.Tensor{ref.AvgPoolBackward(tensor.SliceC1(grad, ni, ci), p, p.Ih, p.Iw)}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, rs := range results {
		for _, r := range rs {
			tensor.StoreC1(out, r.outs[0], r.n, r.c1)
		}
	}
	return out, stats, nil
}

// Conv2D runs convolution on the Cube unit. The channel reduction needs
// the whole C1 extent on one core, so parallelization is across the batch
// dimension only.
func (c *Chip) Conv2D(in, weights *tensor.Tensor, p isa.ConvParams) (out *tensor.Tensor, st *Stats, err error) {
	rs := c.beginRun("conv2d_im2col_cube")
	defer func() { rs.end(st, err) }()
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	if len(weights.Shape) != 4 || weights.Shape[2] != p.Kh || weights.Shape[3] != p.Kw {
		return nil, nil, fmt.Errorf("chip: want (Co,C,%d,%d) weights, got %v", p.Kh, p.Kw, weights.Shape)
	}
	pl, err := rs.plan(func(ct trace.Ctx) (*ops.Plan, error) {
		return c.plans.Conv2D(ct, c.spec, p, weights.Shape[0], weights.Shape[1])
	})
	if err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	n, _, err := checkFractalInput(in)
	if err != nil {
		return nil, nil, err
	}
	co1 := tensor.C1Of(weights.Shape[0])
	oh, ow := p.OutDims()
	out = tensor.New(n, co1, oh, ow, tensor.C0)
	imgBytes := in.Shape[1] * p.Ih * p.Iw * tensor.C0 * 2
	sliceImg := func(ni int) *tensor.Tensor {
		img := tensor.New(1, in.Shape[1], p.Ih, p.Iw, tensor.C0)
		copy(img.Data, in.Data[ni*imgBytes:(ni+1)*imgBytes])
		return img
	}
	results, stats, err := c.runTiles(rs, n, 1, func(core *aicore.Core, ni, _ int) ([]*tensor.Tensor, *aicore.Stats, error) {
		return pl.Run(core, sliceImg(ni), weights)
	}, func(ni, _ int) ([]*tensor.Tensor, error) {
		return []*tensor.Tensor{ref.Conv2D(sliceImg(ni), weights, p)}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, rs := range results {
		for _, r := range rs {
			off := r.n * r.outs[0].Bytes()
			copy(out.Data[off:off+r.outs[0].Bytes()], r.outs[0].Data)
		}
	}
	return out, stats, nil
}

// Conv2DBackwardData propagates convolution gradients to the layer input
// (batch-parallel across cores, like Conv2D). c is the logical input
// channel count.
func (c *Chip) Conv2DBackwardData(grad, weights *tensor.Tensor, p isa.ConvParams, channels int) (out *tensor.Tensor, st *Stats, err error) {
	rs := c.beginRun("conv2d_bwd_data")
	defer func() { rs.end(st, err) }()
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	if len(weights.Shape) != 4 || weights.Shape[2] != p.Kh || weights.Shape[3] != p.Kw {
		return nil, nil, fmt.Errorf("chip: want (Co,C,%d,%d) weights, got %v", p.Kh, p.Kw, weights.Shape)
	}
	pl, err := rs.plan(func(ct trace.Ctx) (*ops.Plan, error) {
		return c.plans.Conv2DBackwardData(ct, c.spec, p, weights.Shape[0], channels)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	n, _, err := checkFractalInput(grad)
	if err != nil {
		return nil, nil, err
	}
	c1 := tensor.C1Of(channels)
	out = tensor.New(n, c1, p.Ih, p.Iw, tensor.C0)
	oh, ow := p.OutDims()
	gradBytes := grad.Shape[1] * oh * ow * tensor.C0 * 2
	sliceGrad := func(ni int) *tensor.Tensor {
		g := tensor.New(1, grad.Shape[1], oh, ow, tensor.C0)
		copy(g.Data, grad.Data[ni*gradBytes:(ni+1)*gradBytes])
		return g
	}
	results, stats, err := c.runTiles(rs, n, 1, func(core *aicore.Core, ni, _ int) ([]*tensor.Tensor, *aicore.Stats, error) {
		return pl.Run(core, sliceGrad(ni), weights)
	}, func(ni, _ int) ([]*tensor.Tensor, error) {
		return []*tensor.Tensor{ref.Conv2DBackwardData(sliceGrad(ni), weights, p, channels)}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, rs := range results {
		for _, r := range rs {
			off := r.n * r.outs[0].Bytes()
			copy(out.Data[off:off+r.outs[0].Bytes()], r.outs[0].Data)
		}
	}
	return out, stats, nil
}

// Conv2DBackwardWeights computes the convolution weight gradient
// dW = dY^T x im2col(x), summing contributions over the batch. co and
// channels are the logical output/input channel counts.
func (c *Chip) Conv2DBackwardWeights(grad, x *tensor.Tensor, p isa.ConvParams, co, channels int) (dw *tensor.Tensor, st *Stats, err error) {
	rs := c.beginRun("conv2d_bwd_weights")
	defer func() { rs.end(st, err) }()
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	pl, err := rs.plan(func(ct trace.Ctx) (*ops.Plan, error) {
		return c.plans.Conv2DBackwardWeights(ct, c.spec, p, co, channels)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	n, _, err := checkFractalInput(grad)
	if err != nil {
		return nil, nil, err
	}
	oh, ow := p.OutDims()
	gradBytes := grad.Shape[1] * oh * ow * tensor.C0 * 2
	xBytes := x.Shape[1] * p.Ih * p.Iw * tensor.C0 * 2
	sliceBatch := func(ni int) (*tensor.Tensor, *tensor.Tensor) {
		g := tensor.New(1, grad.Shape[1], oh, ow, tensor.C0)
		copy(g.Data, grad.Data[ni*gradBytes:(ni+1)*gradBytes])
		xi := tensor.New(1, x.Shape[1], p.Ih, p.Iw, tensor.C0)
		copy(xi.Data, x.Data[ni*xBytes:(ni+1)*xBytes])
		return g, xi
	}
	results, stats, err := c.runTiles(rs, n, 1, func(core *aicore.Core, ni, _ int) ([]*tensor.Tensor, *aicore.Stats, error) {
		g, xi := sliceBatch(ni)
		return pl.Run(core, g, xi)
	}, func(ni, _ int) ([]*tensor.Tensor, error) {
		g, xi := sliceBatch(ni)
		return []*tensor.Tensor{ref.Conv2DBackwardWeights(g, xi, p, co, channels)}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	dw = tensor.New(co, channels, p.Kh, p.Kw)
	for _, rs := range results {
		for _, r := range rs {
			for i := 0; i < dw.Len(); i++ {
				dw.SetFlat(i, fp16.Add(dw.AtFlat(i), r.outs[0].AtFlat(i)))
			}
		}
	}
	return dw, stats, nil
}
