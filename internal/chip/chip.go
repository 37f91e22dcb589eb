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
	"davinci/internal/obs"
	"davinci/internal/ops"
	"davinci/internal/opt"
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
	// Resilience configures the tile executor's fault tolerance (typed
	// hangs, retry/requeue, graceful degradation, fault injection). The
	// zero value runs each tile once and fails the run on the first
	// failure.
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
	tileHangs     *obs.Counter
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
		tileHangs:     cfg.Metrics.Counter("chip_tile_hangs"),
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
// Cancel channel and Trace cleared, or drops it when the list is full.
// Callers pass only cores whose last attempt succeeded; a failed attempt
// may have left corrupted scratch-pads.
func (c *Chip) putCore(core *aicore.Core) {
	core.Trace = nil
	core.Cancel = nil
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
type tileFallback func(ni, ci int) []*tensor.Tensor

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

// Run runs catalogue kernel name (ops.Lookup) over whole tensors: a
// batch of one member (RunBatch).
func (c *Chip) Run(kernel string, d ops.Dims, inputs ...*tensor.Tensor) ([]*tensor.Tensor, *Stats, error) {
	outs, st, err := c.RunBatch(kernel, d, [][]*tensor.Tensor{inputs})
	if err != nil {
		return nil, nil, err
	}
	return outs[0], st, nil
}

// RunBatch runs catalogue kernel name (ops.Lookup) over a batch: each
// member is a list of whole input tensors, as Run takes them, and gets
// its own outputs back. It checks every member's inputs against the
// kernel's shapes for d before anything compiles or runs, compiles the
// kernel once through the chip's plan cache, and replays the plan on
// every tile of the grid the members span — (N, C1) for the pooling
// kernels, N for the convolutions — with the members' images laid end to
// end along N. So tile placement, fault decisions and every cycle are
// those of one run over the members' inputs concatenated along N, and
// every member must span the same C1. Each tile reads its input planes
// in place, as views of its member's tensors (NC1HWC0 tile planes are
// contiguous), and never writes them. Each member's outputs are
// assembled as the catalogue says: per tile at the tile's position, or
// summed over the member's images in image order. A tile that exhausts
// its hardware attempts under Resilience.Degrade is computed by the
// kernel's golden model.
func (c *Chip) RunBatch(kernel string, d ops.Dims, members [][]*tensor.Tensor) (outs [][]*tensor.Tensor, st *Stats, err error) {
	k, err := ops.Lookup(kernel)
	if err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	rs := c.beginRun(k.Program)
	defer func() { rs.end(st, err) }()
	if err := d.P.Validate(); err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	// start[m] is member m's first image on the batch grid; owner maps an
	// image back to its member.
	start := make([]int, len(members)+1)
	var owner []int
	c1 := 0
	for m, inputs := range members {
		n, mc1, err := k.Grid(d, inputs)
		if err != nil {
			return nil, nil, fmt.Errorf("chip: %w", err)
		}
		if m > 0 && mc1 != c1 {
			return nil, nil, fmt.Errorf("chip: %s: batch member %d spans %d C1 slices, member 0 spans %d", k.Name, m, mc1, c1)
		}
		c1 = mc1
		start[m+1] = start[m] + n
		for range n {
			owner = append(owner, m)
		}
	}
	pl, err := rs.plan(func(ct trace.Ctx) (*ops.Plan, error) { return c.plans.Plan(ct, k, c.spec, d) })
	if err != nil {
		return nil, nil, fmt.Errorf("chip: %w", err)
	}
	// shapes and planes are each tiled input's tile shape and bytes.
	shapes := make([][]int, len(k.Inputs))
	planes := make([]int, len(k.Inputs))
	for i, in := range k.Inputs {
		if in.Tiling != ops.Shared {
			shapes[i] = in.Shape(d)
			planes[i] = fp16.Bytes
			for _, v := range shapes[i] {
				planes[i] *= v
			}
		}
	}
	// tile returns the inputs of tile (gn, ci) of the batch grid: views of
	// plane ni*c1+ci of each tiled input of the member holding image gn,
	// ni being its index there, N-major as the layouts are.
	tile := func(gn, ci int) []*tensor.Tensor {
		m := owner[gn]
		ts := make([]*tensor.Tensor, len(members[m]))
		for i, t := range members[m] {
			ts[i] = t
			if b := planes[i]; b > 0 {
				off := ((gn-start[m])*c1 + ci) * b
				ts[i] = &tensor.Tensor{Shape: shapes[i], Data: t.Data[off : off+b : off+b]}
			}
		}
		return ts
	}
	results, stats, err := c.runTiles(rs, pl.Prog, start[len(members)], c1, func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
		return pl.Run(core, tile(ni, ci)...)
	}, func(ni, ci int) []*tensor.Tensor {
		return k.Golden(d, tile(ni, ci))
	})
	if err != nil {
		return nil, nil, err
	}
	grid := make([]*tileResult, start[len(members)]*c1)
	for _, done := range results {
		for j := range done {
			grid[done[j].n*c1+done[j].c1] = &done[j]
		}
	}
	outs = make([][]*tensor.Tensor, len(members))
	for m := range members {
		mo := make([]*tensor.Tensor, len(k.Outputs))
		for i, o := range k.Outputs {
			shape := o.Shape(d)
			if o.Assembly == ops.PerTile {
				// A tile's result is 1 in the grid's dimensions (and c1 is
				// 1 for a kernel tiled by image).
				shape[0], shape[1] = start[m+1]-start[m], shape[1]*c1
			}
			mo[i] = tensor.New(shape...)
		}
		tiles := grid[start[m]*c1 : start[m+1]*c1]
		for t, r := range tiles {
			for i, o := range k.Outputs {
				if o.Assembly == ops.BatchSum {
					fp16.AddSlice(mo[i].Data, mo[i].Data, r.outs[i].Data)
					continue
				}
				b := r.outs[i].Bytes()
				copy(mo[i].Data[t*b:], r.outs[i].Data)
			}
		}
		outs[m] = mo
	}
	return outs, stats, nil
}

// first returns a single-output kernel's result.
func first(outs []*tensor.Tensor, st *Stats, err error) (*tensor.Tensor, *Stats, error) {
	if err != nil {
		return nil, nil, err
	}
	return outs[0], st, nil
}

// weightDims returns the (Co, C) of (Co, C, Kh, Kw) weights; any other
// rank gives zeros, which Run's shape check rejects.
func weightDims(w *tensor.Tensor) (co, c int) {
	if len(w.Shape) != 4 {
		return 0, 0
	}
	return w.Shape[0], w.Shape[1]
}

// MaxPoolForward runs a forward Maxpool variant ("standard", "im2col",
// "expansion" or "xysplit") over an NC1HWC0 tensor.
func (c *Chip) MaxPoolForward(variant string, in *tensor.Tensor, p isa.ConvParams) (*tensor.Tensor, *Stats, error) {
	return first(c.Run("maxpool_fwd/"+variant, ops.Dims{P: p}, in))
}

// AvgPoolForward runs a forward Avgpool variant ("standard", "im2col" or
// "cube").
func (c *Chip) AvgPoolForward(variant string, in *tensor.Tensor, p isa.ConvParams) (*tensor.Tensor, *Stats, error) {
	return first(c.Run("avgpool_fwd/"+variant, ops.Dims{P: p}, in))
}

// MaxPoolForwardArgmax runs a Fig. 7b variant ("standard" or "im2col"),
// returning the pooled output and the argmax mask in the Im2Col shape
// (N, C1, Kh, Kw, OhOw16, C0).
func (c *Chip) MaxPoolForwardArgmax(variant string, in *tensor.Tensor, p isa.ConvParams) (out, mask *tensor.Tensor, st *Stats, err error) {
	outs, st, err := c.Run("maxpool_fwd_argmax/"+variant, ops.Dims{P: p}, in)
	if err != nil {
		return nil, nil, nil, err
	}
	return outs[0], outs[1], st, nil
}

// MaxPoolBackward runs a Fig. 7c variant ("standard" or "col2im"). mask is
// the saved argmax mask; grad has the output shape (N, C1, Oh, Ow, C0).
// The result has the input shape (N, C1, Ih, Iw, C0).
func (c *Chip) MaxPoolBackward(variant string, mask, grad *tensor.Tensor, p isa.ConvParams) (*tensor.Tensor, *Stats, error) {
	return first(c.Run("maxpool_bwd/"+variant, ops.Dims{P: p}, mask, grad))
}

// AvgPoolBackward propagates Avgpool gradients with variant "standard"
// (vadd merge) or "col2im" (the accelerated merge, §V-C).
func (c *Chip) AvgPoolBackward(variant string, grad *tensor.Tensor, p isa.ConvParams) (*tensor.Tensor, *Stats, error) {
	return first(c.Run("avgpool_bwd/"+variant, ops.Dims{P: p}, grad))
}

// Conv2D runs convolution on the Cube unit with (Co, C, Kh, Kw) weights.
// The channel reduction needs the whole C1 extent on one core, so tiles
// split the batch only.
func (c *Chip) Conv2D(in, weights *tensor.Tensor, p isa.ConvParams) (*tensor.Tensor, *Stats, error) {
	co, ch := weightDims(weights)
	return first(c.Run("conv2d", ops.Dims{P: p, Co: co, C: ch}, in, weights))
}

// Conv2DBackwardData propagates convolution gradients to the layer input
// (batch-parallel, like Conv2D). channels is the logical input channel
// count.
func (c *Chip) Conv2DBackwardData(grad, weights *tensor.Tensor, p isa.ConvParams, channels int) (*tensor.Tensor, *Stats, error) {
	co, _ := weightDims(weights)
	return first(c.Run("conv2d_bwd_data", ops.Dims{P: p, Co: co, C: channels}, grad, weights))
}

// Conv2DBackwardWeights computes the convolution weight gradient
// dW = dY^T x im2col(x), summed over the batch. co and channels are the
// logical output/input channel counts.
func (c *Chip) Conv2DBackwardWeights(grad, x *tensor.Tensor, p isa.ConvParams, co, channels int) (*tensor.Tensor, *Stats, error) {
	return first(c.Run("conv2d_bwd_weights", ops.Dims{P: p, Co: co, C: channels}, grad, x))
}
