package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"davinci/internal/obs"
	"davinci/internal/serve"
	"davinci/internal/trace"
)

// outcome is what the benchmark observed for one offered request. Times
// are offsets from the start of the timed window.
type outcome struct {
	request
	start, end time.Duration // Submit entered, Submit returned
	done       time.Duration // terminal outcome
	result     serve.Outcome
	reason     string
	wait, exec time.Duration // Response.Wait, Response.Latency - Wait
	batch      int
	good       bool // completed or degraded with the reference output
	wrong      bool // completed or degraded with any other output
}

// latency runs from the request's due time to its outcome, so a stalled
// generator counts against the requests it delayed.
func (o *outcome) latency() time.Duration { return o.done - o.due }

// fleetCounts are the fleet-registry counters the benchmark reads.
type fleetCounts struct {
	planHits, planMisses int64
	tiles, tileCycles    int64
	attempts, finished   int64 // chip_tile_attempts sum and count
	tilesDegraded        int64
}

func countsOf(reg *obs.Registry) fleetCounts {
	s := reg.Snapshot()
	var c fleetCounts
	c.planHits, _ = s.CounterValue("plan_cache_hits")
	c.planMisses, _ = s.CounterValue("plan_cache_misses")
	c.tiles, _ = s.CounterValue("chip_tiles")
	c.tilesDegraded, _ = s.CounterValue("chip_tiles_degraded")
	if h, ok := s.HistogramValue("chip_tile_cycles"); ok {
		c.tileCycles = h.Sum
	}
	if h, ok := s.HistogramValue("chip_tile_attempts"); ok {
		c.attempts, c.finished = h.Sum, h.Count
	}
	return c
}

// plus returns c + sign*o, field by field.
func (c fleetCounts) plus(o fleetCounts, sign int64) fleetCounts {
	return fleetCounts{
		planHits:      c.planHits + sign*o.planHits,
		planMisses:    c.planMisses + sign*o.planMisses,
		tiles:         c.tiles + sign*o.tiles,
		tileCycles:    c.tileCycles + sign*o.tileCycles,
		attempts:      c.attempts + sign*o.attempts,
		finished:      c.finished + sign*o.finished,
		tilesDegraded: c.tilesDegraded + sign*o.tilesDegraded,
	}
}

// window is one timed measurement: every offered request's outcome plus
// the process and fleet counters across it.
type window struct {
	start   time.Time
	recs    []outcome
	elapsed time.Duration // window start to the last outcome
	counts  fleetCounts   // fleet-registry deltas
	cpu     time.Duration // process user+sys CPU
	alloc   uint64        // heap bytes allocated
	numGC   uint32
	gcPause time.Duration
	errs    []string
}

func (win *window) fail(format string, args ...any) {
	win.errs = append(win.errs, fmt.Sprintf(format, args...))
}

// resolve records a request's response, checks its output against the
// reference and drops the output.
func (o *outcome) resolve(r *serve.Response, in *inputs, w *workload) {
	o.result, o.reason, o.batch = r.Outcome, r.Reason, r.BatchSize
	o.wait, o.exec = r.Wait, r.Latency-r.Wait
	o.done = o.start + r.Latency
	if r.Outcome == serve.OutcomeCompleted || r.Outcome == serve.OutcomeDegraded {
		sh := w.shapes[o.shape]
		want := in.want[sh.kernel][sh.layer]
		o.good = r.Output != nil && bytes.Equal(r.Output.Data, want.Data)
		o.wrong = !o.good
	}
}

// process samples the process-wide counters a window is charged with.
type process struct {
	cpu     time.Duration
	alloc   uint64
	numGC   uint32
	gcPause uint64
}

func sampleProcess() process {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return process{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		gcPause: ms.PauseTotalNs,
	}
}

func (win *window) charge(p0, p1 process) {
	win.cpu = p1.cpu - p0.cpu
	win.alloc = p1.alloc - p0.alloc
	win.numGC = p1.numGC - p0.numGC
	win.gcPause = time.Duration(p1.gcPause - p0.gcPause)
}

// fleet is one running server with the counters it held when its timed
// window started.
type fleet struct {
	s      *serve.Server
	reg    *obs.Registry
	stats  serve.Stats
	counts fleetCounts
}

func newFleet(w *workload, tc trace.Ctx) *fleet {
	reg := obs.NewRegistry()
	cfg := w.config(reg)
	cfg.Trace = tc
	return &fleet{s: serve.New(cfg), reg: reg}
}

// mark records the fleet's counters at the start of a timed window.
func (f *fleet) mark() {
	f.stats = f.s.Stats()
	f.counts = countsOf(f.reg)
}

// settle drains the fleet and checks conservation over the window: no
// request lost, and the server's outcome tallies equal the tickets'.
func (f *fleet) settle(win *window, recs []outcome) {
	f.s.Drain()
	st := f.s.Stats()
	if st.Lost() != 0 {
		win.fail("conservation violated: %d request(s) lost (%+v)", st.Lost(), st)
	}
	var tally [4]int64
	for i := range recs {
		tally[recs[i].result]++
	}
	got := [4]int64{
		st.Completed - f.stats.Completed,
		st.Degraded - f.stats.Degraded,
		st.Rejected - f.stats.Rejected,
		st.Cancelled - f.stats.Cancelled,
	}
	if got != tally {
		win.fail("server tallies %v (completed/degraded/rejected/cancelled) disagree with ticket tallies %v", got, tally)
	}
	win.counts = win.counts.plus(countsOf(f.reg).plus(f.counts, -1), 1)
}

// warmup sends two requests of every shape, one at a time, so each plan
// is compiled, its timing memoized and its trace flattened before the
// timed window.
func warmup(f *fleet, w *workload, in *inputs) error {
	for si := range w.shapes {
		for range 2 {
			r := request{shape: si, class: serve.ClassInteractive}
			o := outcome{request: r}
			o.resolve(f.s.Do(context.Background(), w.request(in, r)), in, w)
			if !o.good {
				sh := w.shapes[si]
				return fmt.Errorf("warm-up %s/%s on layer %d: %s %s", sh.kernel, sh.variant, sh.layer, o.result, o.reason)
			}
		}
	}
	return nil
}

// runOpen offers reqs to f at their due times from one submitting
// goroutine, while one collector goroutine resolves, verifies and drops
// each response.
func runOpen(f *fleet, w *workload, in *inputs, reqs []request) *window {
	win := &window{recs: make([]outcome, len(reqs))}
	type sent struct {
		o *outcome
		t *serve.Ticket
	}
	// Buffered for every send, so the submitter never waits on the
	// collector.
	ch := make(chan sent, len(reqs))
	f.mark()
	p0 := sampleProcess()
	start := time.Now()
	win.start = start
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for x := range ch {
			x.o.resolve(x.t.Wait(), in, w)
		}
	}()
	for i, r := range reqs {
		if d := r.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		o := &win.recs[i]
		o.request = r
		o.start = time.Since(start)
		t := f.s.Submit(context.Background(), w.request(in, r))
		o.end = time.Since(start)
		ch <- sent{o, t}
	}
	close(ch)
	wg.Wait()
	f.settle(win, win.recs)
	win.charge(p0, sampleProcess())
	for i := range win.recs {
		win.elapsed = max(win.elapsed, win.recs[i].done)
	}
	return win
}

// runClosed is the closed loop: one client sends each request of a pass
// after the previous one resolves, on a fresh fleet per pass, and starts
// passes until d has elapsed. A request is due when its predecessor
// resolved, the first of a pass when the pass began, so building the
// fleet and checking outputs count against latency.
func runClosed(w *workload, in *inputs, rng *rand.Rand, d time.Duration, tc trace.Ctx) *window {
	win := &window{}
	p0 := sampleProcess()
	start := time.Now()
	win.start = start
	for len(win.recs) == 0 || time.Since(start) < d {
		due := time.Since(start)
		f := newFleet(w, tc)
		f.mark()
		first := len(win.recs)
		for _, r := range w.pass(rng) {
			o := outcome{request: r}
			o.due = due
			o.start = time.Since(start)
			t := f.s.Submit(context.Background(), w.request(in, r))
			o.end = time.Since(start)
			o.resolve(t.Wait(), in, w)
			win.recs = append(win.recs, o)
			due = o.done
		}
		f.settle(win, win.recs[first:])
		f.s.Close()
	}
	win.elapsed = time.Since(start)
	win.charge(p0, sampleProcess())
	return win
}

// goroutinePeak polls runtime.NumGoroutine every millisecond until the
// returned stop is called; stop returns the most seen. Only traced runs
// poll, so a measured run carries no poller.
func goroutinePeak() (stop func() int) {
	done := make(chan struct{})
	peak := make(chan int)
	go func() {
		most := 0
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			most = max(most, runtime.NumGoroutine())
			select {
			case <-done:
				peak <- most
				return
			case <-t.C:
			}
		}
	}()
	return func() int {
		close(done)
		return <-peak
	}
}
