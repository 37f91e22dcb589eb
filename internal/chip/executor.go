package chip

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"davinci/internal/aicore"
	"davinci/internal/cce"
	"davinci/internal/faults"
	"davinci/internal/tensor"
	"davinci/internal/trace"
)

// Resilience configures the fault tolerance of the tile executor. Every
// run goes through the same executor; per tile attempt it provides:
//
//   - typed hangs: a stuck pipe or a starved wait_flag fails its attempt
//     at once with a *TileError (ErrTileHang) naming the blocked pipe, the
//     unsatisfied wait_flag when known, and the tail of the
//     stall-attributed trace;
//   - bounded retry on a clean host core — a faulted core's scratch-pads
//     may hold corrupted data, so it is dropped, never reused or returned
//     to the chip's free list — requeued onto a different healthy
//     simulated core when one exists;
//   - per-core failure budgets: a core exceeding CoreFailLimit failed
//     attempts is marked bad and excluded from further work;
//   - optional graceful degradation: a tile that exhausts MaxAttempts
//     falls back to the host-side golden model (internal/ref) and is
//     reported in Stats.Degraded instead of failing the run;
//   - panic containment: a panicking tile worker is recovered into an
//     ErrTilePanic carrying the core index, tile identity and stack.
//
// Zero-valued fields take defaults, and Enabled picks which: without it a
// tile gets one attempt, with no attempt tracing, so the first failure
// fails the run; with it the fault-tolerant defaults named on each field
// apply.
//
// Retry backoff is simulated bookkeeping only: each retry adds
// retryBackoffBase << (attempt-1) to the chip_retry_backoff_cycles counter
// without sleeping the host or perturbing the deterministic cycle
// accounting of successful attempts.
type Resilience struct {
	// Enabled selects the fault-tolerant defaults for the zero-valued
	// fields below.
	Enabled bool
	// Injector, when non-nil, perturbs tile attempts with deterministic
	// seeded faults (internal/faults) — the chaos harness. A faulted
	// attempt executes no instruction: the executor hands the decided
	// fault to Injector.Fire in place of the tile run, and a hang kind
	// fails its attempt as soon as it fires.
	Injector *faults.Injector
	// MaxAttempts bounds hardware attempts per tile (first try included);
	// 0 means 3 with Enabled, 1 without.
	MaxAttempts int
	// CoreFailLimit is how many failed attempts mark a core bad; 0 means 3.
	CoreFailLimit int
	// Degrade enables the golden-model fallback for tiles that exhaust
	// their attempts (reported in Stats.Degraded). Off, such tiles fail
	// the run.
	Degrade bool
	// TraceTail is how many trailing trace entries a hang report carries;
	// 0 means 8 with Enabled and no attempt tracing without. Negative
	// disables attempt tracing (hang reports then carry no schedule tail).
	// Only faulted attempts are traced; their entries come from a
	// data-free timing walk, up to where the attempt wedged.
	TraceTail int
}

// retryBackoffBase is the base of the simulated exponential retry backoff,
// in cycles.
const retryBackoffBase = 1024

// policy resolves r's zero-valued fields. In the result a TraceTail <= 0
// means no attempt tracing.
func (r Resilience) policy() Resilience {
	if r.CoreFailLimit <= 0 {
		r.CoreFailLimit = 3
	}
	if !r.Enabled {
		if r.MaxAttempts <= 0 {
			r.MaxAttempts = 1
		}
		return r
	}
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
	if r.TraceTail == 0 {
		r.TraceTail = 8
	}
	return r
}

// DegradedTile reports one tile computed by the host-side golden model
// after its hardware attempts were exhausted.
type DegradedTile struct {
	// N, C1 identify the tile.
	N, C1 int
	// Attempts is how many hardware attempts were made.
	Attempts int
	// LastErr is the final hardware failure, stringified for reporting.
	LastErr string
}

// tileAttempt is one pending attempt at an (n, c1) tile.
type tileAttempt struct {
	n, c1   int
	attempt int
	// excluded are core indices that already failed this tile; it is not
	// placed on them again while another healthy core remains.
	excluded map[int]bool
	// lastErr is the failure that caused this attempt (nil for first
	// attempts still on their round-robin core).
	lastErr error
	// prevSpan is the failed attempt's tile_exec span, so the retry's
	// span (or the tile_degrade span) can link back to it causally;
	// 0 when tracing is off or the tile has not failed.
	prevSpan trace.SpanID
}

// lane is one simulated core's pending attempts, run in order by at most
// one host worker at a time.
type lane struct {
	jobs  []tileAttempt
	owned bool
	// load counts the attempts ever placed on the core; retries go to
	// the least loaded healthy core.
	load int
}

// executor is the shared state of one runTiles call.
type executor struct {
	chip *Chip
	pol  Resilience
	prog *cce.Program // what run executes; faults act on it
	run  tileRun
	fb   tileFallback
	rs   *runScope
	// cycOff is each simulated core's running cycle offset, placing its
	// tile_exec spans back to back on the core's own cycle axis. Index k
	// is touched only by the worker owning lane k.
	cycOff []int64

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	lanes     []lane
	remaining int
	fatal     []error
	results   [][]tileResult
	degraded  []DegradedTile
	coreFails []int
	bad       []bool
}

// runTiles executes the (n, c1) tile grid and aggregates stats: serial
// within a simulated core, parallel across cores. First attempts go
// round-robin (grid index i to core i % Cores) and each core runs its
// attempts in order on its own cycle axis, so every cycle count is
// independent of the host. The host runs a pool of
// min(GOMAXPROCS, Cores, tiles) workers; a worker drives one simulated
// core at a time and reuses one aicore.Core across clean attempts, taken
// from and returned to the chip's free list. An attempt the injector
// faults runs Injector.Fire on prog, the program run executes, instead of
// run (callers that inject no faults may pass a nil prog).
// Failed attempts are classified, retried on a clean core placed on the
// least-loaded healthy core that has not failed the tile, and optionally
// degraded to the golden model (see Resilience). The first fatal error,
// or cancellation of Config.Context, interrupts every in-flight attempt.
func (c *Chip) runTiles(rs *runScope, prog *cce.Program, n, c1 int, run tileRun, fb tileFallback) ([][]tileResult, *Stats, error) {
	parent := c.cfg.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	cores := c.cfg.Cores
	e := &executor{
		chip:      c,
		pol:       c.cfg.Resilience.policy(),
		prog:      prog,
		run:       run,
		fb:        fb,
		rs:        rs,
		cycOff:    make([]int64, cores),
		ctx:       ctx,
		cancel:    cancel,
		lanes:     make([]lane, cores),
		remaining: n * c1,
		results:   make([][]tileResult, cores),
		coreFails: make([]int, cores),
		bad:       make([]bool, cores),
	}
	e.cond = sync.NewCond(&e.mu)
	for i := 0; i < n*c1; i++ {
		l := &e.lanes[i%cores]
		l.jobs = append(l.jobs, tileAttempt{n: i / c1, c1: i % c1, attempt: 1})
		l.load++
	}

	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), cores, n*c1); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.work()
		}()
	}
	wg.Wait()

	if len(e.fatal) > 0 {
		return nil, nil, errors.Join(e.fatal...)
	}
	stats := &Stats{CoreCycles: make([]int64, cores), Tiles: n * c1}
	for k, rs := range e.results {
		coreTotal := &aicore.Stats{}
		for _, res := range rs {
			coreTotal.AddSerial(res.stats)
		}
		stats.CoreCycles[k] = coreTotal.Cycles
		stats.Work.AddParallel(coreTotal)
	}
	sort.Slice(e.degraded, func(i, j int) bool {
		if e.degraded[i].N != e.degraded[j].N {
			return e.degraded[i].N < e.degraded[j].N
		}
		return e.degraded[i].C1 < e.degraded[j].C1
	})
	stats.Degraded = e.degraded
	stats.Cycles = stats.Work.Cycles
	stats.Plans = c.plans.Stats()
	stats.Metrics = c.metrics.Snapshot()
	return e.results, stats, nil
}

// work is one host worker: it runs attempts until every tile is final or
// the run went fatal, keeping one aicore.Core for as long as its attempts
// succeed, and hands a clean core back to the chip's free list at the end.
func (e *executor) work() {
	var core *aicore.Core
	k := -1
	for {
		j, ok := e.next(&k)
		if !ok {
			break
		}
		core = e.attempt(core, k, j)
	}
	if core != nil {
		e.chip.putCore(core)
	}
}

// next returns the next attempt of lane *k, the lane the worker owns (-1
// for none). Once that lane runs dry the worker releases it and claims
// the first unowned lane with pending attempts, blocking while there is
// none. It reports false once every tile is final or the run went fatal.
func (e *executor) next(k *int) (tileAttempt, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.remaining == 0 || len(e.fatal) > 0 {
			return tileAttempt{}, false
		}
		if *k >= 0 {
			l := &e.lanes[*k]
			if len(l.jobs) > 0 {
				j := l.jobs[0]
				l.jobs = l.jobs[1:]
				return j, true
			}
			l.owned = false
			*k = -1
		}
		for i := range e.lanes {
			if l := &e.lanes[i]; !l.owned && len(l.jobs) > 0 {
				l.owned = true
				*k = i
				break
			}
		}
		if *k < 0 {
			e.cond.Wait()
		}
	}
}

// attempt runs j on simulated core k (or fires its fault instead), then
// classifies the outcome. core is the worker's host core (nil takes one
// from the chip's free list); the result is the core to use next: the
// same one after a clean attempt, nil after a failed one, whose
// scratch-pads may hold corrupted data.
func (e *executor) attempt(core *aicore.Core, k int, j tileAttempt) *aicore.Core {
	if e.ctx.Err() != nil {
		// Already aborted: don't start an attempt that must not run.
		e.noteAborted()
		return core
	}
	c := e.chip
	if core == nil {
		core = c.getCore()
	}
	var f faults.Fault
	if inj := e.pol.Injector; inj != nil {
		f = inj.Decide(faults.Tile{N: j.n, C1: j.c1}, j.attempt)
	}
	// Only a fault can leave a hang report to write, so clean attempts
	// skip the traced walk unless this is the captured tile.
	core.Trace = nil
	capturing := e.rs.capturing(j.n, j.c1)
	if capturing || (f.Kind != faults.KindNone && e.pol.TraceTail > 0) {
		core.Trace = &aicore.Trace{}
	}

	ts := e.rs.tileSpan(k, j)
	core.Cancel = e.ctx.Done()
	start := time.Now()
	outs, st, err := e.guardedRun(core, k, j, f)
	c.tileWall.Observe(time.Since(start).Nanoseconds())

	if err == nil {
		if ts != nil {
			ts.SetAttr("outcome", "ok")
			off := e.cycOff[k]
			ts.SetCycles(off, off+st.Cycles)
			ts.End()
		}
		e.cycOff[k] += st.Cycles
		if capturing {
			e.rs.stashTrace(core.Trace)
		}
		e.finalizeSuccess(k, j, outs, st)
		return core
	}
	te := e.classify(k, j, core, err)
	var spanID trace.SpanID
	if ts != nil {
		if te != nil && errors.Is(te.Kind, ErrTileHang) {
			ts.SetAttr("hang", "true")
		}
		ts.SetAttr("outcome", "error")
		spanID = ts.ID()
		ts.End()
	}
	switch {
	case e.ctx.Err() != nil:
		// Casualty of the run-wide abort, not a failure of this tile.
		e.noteAborted()
	case te != nil:
		e.handleFailure(k, j, te, spanID)
	default:
		// Not a fault, hang or panic: a deterministic bug (bad plan, bad
		// shape). Retrying cannot help; fail the run.
		e.setFatal(fmt.Errorf("chip: core %d tile (%d,%d): %w", k, j.n, j.c1, err))
	}
	return nil
}

// guardedRun carries out fault f, if any, and runs the tile closure
// unless the fault failed the attempt, with panic containment: a
// panicking worker becomes a typed error, not a crashed process.
func (e *executor) guardedRun(core *aicore.Core, k int, j tileAttempt, f faults.Fault) (outs []*tensor.Tensor, st *aicore.Stats, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &TileError{
				N: j.n, C1: j.c1, Core: k, Attempt: j.attempt,
				Kind:  ErrTilePanic,
				Cause: fmt.Errorf("panic: %v", rec),
				Stack: debug.Stack(),
			}
		}
	}()
	if f.Kind != faults.KindNone {
		if err := e.pol.Injector.Fire(core, e.prog, f); err != nil {
			return nil, nil, err
		}
	}
	return e.run(core, j.n, j.c1)
}

// classify turns a failed attempt into a typed *TileError, or nil when
// the failure is deterministic (not retryable). A deadlock or a stuck
// pipe is a hang, whatever else it is; other injected faults are tile
// faults.
func (e *executor) classify(k int, j tileAttempt, core *aicore.Core, err error) *TileError {
	var te *TileError
	if errors.As(err, &te) {
		return te // panic path, already typed
	}
	te = &TileError{N: j.n, C1: j.c1, Core: k, Attempt: j.attempt, Cause: err}
	var dl *aicore.DeadlockError
	var sp *faults.StuckPipeError
	switch {
	case errors.As(err, &dl):
		te.Pipe, te.Flag, te.HasFlag = dl.Pipe, dl.Flag, dl.HasFlag
	case errors.As(err, &sp):
		te.Pipe = sp.Pipe
	default:
		if _, injected := faults.IsInjected(err); !injected {
			return nil
		}
		te.Kind = ErrTileFault
		return te
	}
	te.Kind = ErrTileHang
	// The captured tile is traced whatever TraceTail says; a hang report
	// carries a tail only when TraceTail asks for one.
	if core.Trace != nil && e.pol.TraceTail > 0 {
		tail := core.Trace.Entries
		if len(tail) > e.pol.TraceTail {
			tail = tail[len(tail)-e.pol.TraceTail:]
		}
		te.TraceTail = append([]aicore.TraceEntry(nil), tail...)
	}
	return te
}

// handleFailure books the failed attempt and either schedules a retry,
// degrades the tile, or fails the run.
func (e *executor) handleFailure(k int, j tileAttempt, te *TileError, spanID trace.SpanID) {
	c := e.chip
	switch {
	case errors.Is(te.Kind, ErrTilePanic):
		c.tilePanics.Inc()
	case errors.Is(te.Kind, ErrTileHang):
		c.tileHangs.Inc()
	}

	e.mu.Lock()
	var exhausted []tileAttempt
	e.coreFails[k]++
	if !e.bad[k] && e.coreFails[k] >= e.pol.CoreFailLimit {
		e.bad[k] = true
		c.coresFailed.Inc()
		// The bad core takes no more work: its pending attempts move to
		// healthy cores, or are exhausted when none is left.
		moved := e.lanes[k].jobs
		e.lanes[k].jobs = nil
		for _, mj := range moved {
			if mj.lastErr == nil {
				mj.lastErr = &CoreFailedError{Core: k, Failures: e.coreFails[k]}
			}
			mj.excluded = excludeSet(mj.excluded, k)
			if !e.pushLocked(mj) {
				exhausted = append(exhausted, mj)
			}
		}
	}
	retryScheduled := false
	if j.attempt < e.pol.MaxAttempts {
		nj := tileAttempt{n: j.n, c1: j.c1, attempt: j.attempt + 1, excluded: excludeSet(j.excluded, k), lastErr: te, prevSpan: spanID}
		c.tileRetries.Inc()
		// Simulated exponential backoff: bookkeeping only, never a host
		// sleep, never added to the deterministic core cycle accounting.
		c.backoffCycles.Add(retryBackoffBase << (j.attempt - 1))
		retryScheduled = e.pushLocked(nj)
	}
	e.mu.Unlock()

	if !retryScheduled {
		j.prevSpan = spanID
		e.finalizeExhausted(k, j, te)
	}
	for _, ex := range exhausted {
		e.finalizeExhausted(k, ex, ex.lastErr)
	}
}

// excludeSet copies prev and adds k.
func excludeSet(prev map[int]bool, k int) map[int]bool {
	next := make(map[int]bool, len(prev)+1)
	for i, v := range prev {
		next[i] = v
	}
	next[k] = true
	return next
}

// pushLocked places j on the least-loaded healthy core outside its
// exclusion set, loosening the set when every healthy core has already
// failed the tile (retrying there still beats giving up). Returns false
// when no healthy core remains at all.
func (e *executor) pushLocked(j tileAttempt) bool {
	k := e.leastLoadedLocked(j.excluded)
	if k >= 0 && len(j.excluded) > 0 {
		e.chip.tileRequeues.Inc()
	}
	if k < 0 {
		if k = e.leastLoadedLocked(nil); k < 0 {
			return false
		}
		j.excluded = nil
	}
	l := &e.lanes[k]
	l.jobs = append(l.jobs, j)
	l.load++
	e.cond.Broadcast()
	return true
}

// leastLoadedLocked returns the healthy core outside excluded with the
// fewest placed attempts (lowest index on ties), or -1.
func (e *executor) leastLoadedLocked(excluded map[int]bool) int {
	best := -1
	for k := range e.lanes {
		if e.bad[k] || excluded[k] {
			continue
		}
		if best < 0 || e.lanes[k].load < e.lanes[best].load {
			best = k
		}
	}
	return best
}

func (e *executor) finalizeSuccess(k int, j tileAttempt, outs []*tensor.Tensor, st *aicore.Stats) {
	c := e.chip
	e.mu.Lock()
	e.results[k] = append(e.results[k], tileResult{n: j.n, c1: j.c1, outs: outs, stats: st})
	e.remaining--
	e.cond.Broadcast()
	e.mu.Unlock()
	c.tiles.Inc()
	c.tileAttempts.Observe(int64(j.attempt))
	c.tileCycles.Observe(st.Cycles)
	c.tileInstrs.Add(st.Instrs)
	c.bytesIn.Add(st.BytesIn)
	c.bytesOut.Add(st.BytesOut)
}

// finalizeExhausted handles a tile with no hardware attempts left:
// golden-model degradation when enabled, otherwise run failure.
func (e *executor) finalizeExhausted(k int, j tileAttempt, cause error) {
	if cause == nil {
		cause = &CoreFailedError{Core: k}
	}
	if !e.pol.Degrade || e.fb == nil {
		e.setFatal(fmt.Errorf("chip: tile (%d,%d) failed after %d attempt(s): %w", j.n, j.c1, j.attempt, cause))
		return
	}
	outs := e.fb(j.n, j.c1)
	// The degradation decision is itself a span, causally after the
	// attempt (or requeue) that exhausted the tile.
	if ds := e.rs.ctx().StartSpan("tile_degrade",
		"n", strconv.Itoa(j.n), "c1", strconv.Itoa(j.c1), "attempts", strconv.Itoa(j.attempt)); ds != nil {
		ds.Link("after", j.prevSpan)
		ds.End()
	}
	e.chip.tilesDegraded.Inc()
	e.chip.tileAttempts.Observe(int64(j.attempt))
	e.mu.Lock()
	// Degraded tiles contribute data but no cycles: the host, not a core,
	// computed them.
	e.results[k] = append(e.results[k], tileResult{n: j.n, c1: j.c1, outs: outs, stats: &aicore.Stats{}})
	e.degraded = append(e.degraded, DegradedTile{N: j.n, C1: j.c1, Attempts: j.attempt, LastErr: cause.Error()})
	e.remaining--
	e.cond.Broadcast()
	e.mu.Unlock()
}

// setFatal records a run-killing error and aborts every in-flight core.
func (e *executor) setFatal(err error) {
	e.mu.Lock()
	e.fatal = append(e.fatal, err)
	e.cond.Broadcast()
	e.mu.Unlock()
	e.cancel()
}

// noteAborted records the caller's cancellation (once) when an attempt
// died from the run-wide abort rather than its own failure. The error
// matches both the context's error and aicore.ErrInterrupted.
func (e *executor) noteAborted() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.fatal) == 0 {
		e.fatal = append(e.fatal, fmt.Errorf("chip: run aborted: %w: %w", e.ctx.Err(), aicore.ErrInterrupted))
		e.cond.Broadcast()
	}
}
