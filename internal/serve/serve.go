// Package serve is the inference serving layer over a fleet of simulated
// chips: an asynchronous request path with continuous batching and
// first-class overload behavior. Every request submitted reaches exactly
// one terminal outcome — completed, degraded, rejected or cancelled —
// never silently lost and never unboundedly queued; that conservation
// invariant is the package's contract and the chaos suite's main
// assertion.
//
// The request path, top to bottom:
//
//  1. Admission (Submit): validate, compile the plan through the fleet's
//     shared ops.PlanCache (the shape-keyed fast path — a warm shape is a
//     cache hit, a cold one pays its compile on the submitter's
//     goroutine, never on a dispatcher's), check the deadline budget
//     against the plan's static critical-path bound, run the
//     load-shedding controller, and enqueue into the bounded intake
//     queue.
//  2. Batching (dispatchers, one per chip): same-shape requests coalesce
//     FIFO into chip-sized batches along the tensor N axis — continuous
//     batching, a batch launches as soon as a chip is free rather than
//     waiting for a full one. The batcher never packs a request into a
//     batch whose predicted completion would bust any member's deadline.
//  3. Execution: the batch runs on the chip under a batch context that is
//     cancelled (through the core.Cancel path) once every member's
//     context has expired. Per-chip circuit breakers take a failing chip
//     out of rotation and probe it half-open after a cooldown; liveness
//     is preserved because an open breaker always re-admits a probe once
//     its cooldown elapses.
//  4. Outcome: completed responses are bit-identical to the golden model
//     (the chips guarantee that); failures degrade to internal/ref when
//     enabled, reported per-request, so availability degrades in latency
//     and never in correctness.
package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"davinci/internal/buffer"
	"davinci/internal/chip"
	"davinci/internal/isa"
	"davinci/internal/obs"
	"davinci/internal/ops"
	"davinci/internal/opt"
	"davinci/internal/tensor"
	"davinci/internal/trace"
)

// Class is a request priority class. Higher classes are shed later: under
// overload the controller rejects ClassBatch first, then ClassStandard;
// ClassInteractive is never shed by the controller (it can still see
// ErrQueueFull or ErrDeadlineBudget).
type Class int

const (
	ClassBatch Class = iota
	ClassStandard
	ClassInteractive
)

func (c Class) String() string {
	switch c {
	case ClassBatch:
		return "batch"
	case ClassStandard:
		return "standard"
	case ClassInteractive:
		return "interactive"
	default:
		return "unknown"
	}
}

// Outcome is the terminal state of a request. Every submitted request
// reaches exactly one.
type Outcome int

const (
	// OutcomeCompleted: served by a chip; output bit-identical to the
	// golden model.
	OutcomeCompleted Outcome = iota
	// OutcomeDegraded: served by the host-side golden model after a chip
	// failure or under overload; correct output, reduced priority.
	OutcomeDegraded
	// OutcomeRejected: refused with a typed error (admission or
	// execution failure).
	OutcomeRejected
	// OutcomeCancelled: the request's context expired before a result
	// was produced.
	OutcomeCancelled
)

func (o Outcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeRejected:
		return "rejected"
	case OutcomeCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// Request is one pooling inference: a forward kernel over an NC1HWC0
// input.
type Request struct {
	// Kernel selects the operation: "maxpool" or "avgpool" (forward).
	Kernel string
	// Variant selects the implementation ("im2col", "standard", ...);
	// empty means "im2col".
	Variant string
	// Params are the layer parameters (kernel, stride, input dims).
	Params isa.ConvParams
	// Input is the NC1HWC0 input tensor; its H/W must match Params.
	Input *tensor.Tensor
	// Class is the priority class (zero value = ClassBatch, shed first).
	Class Class
}

func (r *Request) variant() string {
	if r.Variant == "" {
		return "im2col"
	}
	return r.Variant
}

func (r *Request) impl() string { return r.Kernel + "_fwd_" + r.variant() }

// Response is a request's terminal outcome.
type Response struct {
	Outcome Outcome
	// Output is the pooled NC1HWC0 tensor (completed and degraded
	// outcomes only).
	Output *tensor.Tensor
	// Err is the typed failure for rejected/cancelled outcomes.
	Err error
	// Reason is the short machine-readable cause for rejections and
	// degradations ("queue_full", "shed", "evicted", "deadline",
	// "invalid", "closed", "exec", "overload").
	Reason string
	// Chip is the fleet slot that served the request (-1 when no chip
	// did).
	Chip int
	// BatchSize is the size of the batch the request rode in (0 when it
	// never reached a chip).
	BatchSize int
	// Wait is the time spent in the intake queue.
	Wait time.Duration
	// Latency is submit-to-outcome wall time.
	Latency time.Duration
}

// Ticket is the handle Submit returns: a future for exactly one Response.
type Ticket struct {
	done chan struct{}
	resp *Response
}

func newTicket() *Ticket { return &Ticket{done: make(chan struct{})} }

// Done returns a channel closed when the response is ready.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the request reaches its terminal outcome. The
// response is never nil.
func (t *Ticket) Wait() *Response {
	<-t.done
	return t.resp
}

// Config describes the serving fleet.
type Config struct {
	// Chips is the fleet size; 0 means 2.
	Chips int
	// Cores per chip; 0 means chip.DefaultCores.
	Cores int
	// Buffers, Opt and AutoSchedule configure every chip in the fleet
	// (and the shared plan cache's compile spec).
	Buffers      buffer.Config
	Opt          opt.Level
	AutoSchedule bool
	// Resilience is each chip's fault-tolerant executor config (the
	// chaos harness threads its injector through here). The serving
	// layer's breakers and degradation sit above it.
	Resilience chip.Resilience
	// QueueLimit bounds the intake queue; 0 means 64. When full, a new
	// higher-class request evicts the youngest lowest-class queued one;
	// otherwise admission fails with ErrQueueFull.
	QueueLimit int
	// MaxBatch bounds how many same-shape requests coalesce into one
	// chip batch; 0 means 8.
	MaxBatch int
	// SLO is the latency objective feeding the shedding controller; 0
	// disables shedding.
	SLO time.Duration
	// CyclesPerSecond converts the static cycle bounds into wall time
	// for deadline and SLO math; 0 means 1e9 (a 1 GHz device).
	CyclesPerSecond float64
	// DegradeOnOverload serves shed-class requests from the golden model
	// instead of rejecting them (availability over latency).
	DegradeOnOverload bool
	// DegradeOnFailure serves requests whose batch failed on-chip from
	// the golden model instead of rejecting them.
	DegradeOnFailure bool
	// BreakerFailLimit is the consecutive batch failures that open a
	// chip's circuit breaker; 0 means 3.
	BreakerFailLimit int
	// BreakerCooldown is how long an open breaker waits before admitting
	// a half-open probe batch; 0 means 100ms.
	BreakerCooldown time.Duration
	// Metrics is the registry the fleet's serve_* instruments (and every
	// chip's) register in; nil gives the server a private registry.
	Metrics *obs.Registry
	// Trace is the span context requests nest under; the zero value
	// disables tracing.
	Trace trace.Ctx
}

func (c Config) withDefaults() Config {
	if c.Chips <= 0 {
		c.Chips = 2
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.CyclesPerSecond <= 0 {
		c.CyclesPerSecond = 1e9
	}
	if c.BreakerFailLimit <= 0 {
		c.BreakerFailLimit = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 100 * time.Millisecond
	}
	return c
}

// Server is the serving fleet: a bounded intake queue in front of
// per-chip dispatcher goroutines.
type Server struct {
	cfg     Config
	metrics *obs.Registry
	plans   *ops.PlanCache
	spec    ops.Spec
	tc      trace.Ctx
	ctx     context.Context
	cancel  context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	groups    map[shapeKey]*group
	seq       uint64 // FIFO arrival order across groups
	queued    int
	backlog   int64 // predicted chip-cycles of all queued work
	highWater int
	inflight  int // popped but not yet resolved
	closed    bool
	paused    bool // test hook: dispatchers idle while set

	slots []*slot
	wg    sync.WaitGroup

	// Conservation accounting (terminal outcomes are exactly-once, so
	// these always reconcile: submitted == completed + degraded +
	// rejected + cancelled after a drain).
	nSubmitted atomic.Int64
	nAdmitted  atomic.Int64
	nCompleted atomic.Int64
	nDegraded  atomic.Int64
	nRejected  atomic.Int64
	nCancelled atomic.Int64
	nTrips     atomic.Int64
	nProbes    atomic.Int64

	cCompleted *obs.Counter
	cCancelled *obs.Counter
	cBatches   *obs.Counter
	cTrips     *obs.Counter
	cProbes    *obs.Counter
	gDepth     *obs.Gauge
	hBatch     *obs.Histogram
	hWait      *obs.Histogram
	hLatency   *obs.Histogram
}

// shapeKey identifies a batchable shape: identical catalogue kernel and
// parameters. Requests sharing a key run as one batch, their images laid
// end to end along N on the chip's tile grid.
type shapeKey struct {
	kernel *ops.Kernel
	params isa.ConvParams
	c1     int // channel-split count; batching needs homogeneous C1
}

// pending is one queued (or in-flight) request.
type pending struct {
	req      Request
	ctx      context.Context
	ticket   *Ticket
	span     *trace.ActiveSpan
	seq      uint64
	queuedAt time.Time
	popped   time.Time
	deadline time.Time
	hasDL    bool
	tiles    int   // N*C1 of the input
	cycles   int64 // predicted chip-cycles for a solo run
}

// group is the FIFO of queued requests for one shape.
type group struct {
	key  shapeKey
	plan *ops.Plan
	reqs []*pending
}

// New builds and starts the fleet. Callers must Close it to stop the
// dispatchers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		metrics: reg,
		plans:   ops.NewPlanCacheOn(reg),
		spec:    ops.Spec{Buffers: cfg.Buffers, Strict: true, Opt: cfg.Opt, AutoSchedule: cfg.AutoSchedule},
		tc:      cfg.Trace,
		ctx:     ctx,
		cancel:  cancel,
		groups:  map[shapeKey]*group{},

		cCompleted: reg.Counter("serve_completed"),
		cCancelled: reg.Counter("serve_cancelled"),
		cBatches:   reg.Counter("serve_batches"),
		cTrips:     reg.Counter("serve_breaker_trips"),
		cProbes:    reg.Counter("serve_breaker_probes"),
		gDepth:     reg.Gauge("serve_queue_depth"),
		hBatch:     reg.Histogram("serve_batch_size", obs.DefaultAttemptBounds()),
		hWait:      reg.Histogram("serve_queue_wait_nanos", obs.DefaultNanoBounds()),
		hLatency:   reg.Histogram("serve_latency_nanos", obs.DefaultNanoBounds()),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Chips; i++ {
		s.slots = append(s.slots, &slot{
			id: i,
			chip: chip.New(chip.Config{
				Cores:        cfg.Cores,
				Buffers:      cfg.Buffers,
				Opt:          cfg.Opt,
				AutoSchedule: cfg.AutoSchedule,
				Strict:       true,
				Plans:        s.plans,
				Metrics:      reg,
				Resilience:   cfg.Resilience,
				Trace:        cfg.Trace,
			}),
		})
	}
	for _, sl := range s.slots {
		s.wg.Add(1)
		go s.dispatch(sl)
	}
	return s
}

// Metrics returns the fleet's registry.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// cores returns the per-chip core count used for capacity math.
func (s *Server) cores() int {
	if s.cfg.Cores > 0 {
		return s.cfg.Cores
	}
	return chip.DefaultCores
}

// predictCycles is the static bound on chip-cycles to run `tiles` tiles
// of a plan on one chip: tiles fan out across cores, each tile costs the
// plan's critical-path upper bound.
func (s *Server) predictCycles(pl *ops.Plan, tiles int) int64 {
	waves := (tiles + s.cores() - 1) / s.cores()
	return pl.Perf.CritPath * int64(waves)
}

func (s *Server) cyclesToNS(cycles int64) int64 {
	return int64(float64(cycles) / s.cfg.CyclesPerSecond * 1e9)
}

// Do is the synchronous form of Submit.
func (s *Server) Do(ctx context.Context, req Request) *Response {
	return s.Submit(ctx, req).Wait()
}

// Drain blocks until the queue is empty and no popped request awaits its
// outcome.
func (s *Server) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.queued > 0 || s.inflight > 0 {
		s.cond.Wait()
	}
}

// Close drains the queue, stops the dispatchers and releases the fleet.
// New submissions are rejected with ErrClosed from the moment Close is
// called. Safe to call once.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.cancel()
}

// Stats is a point-in-time view of the conservation accounting.
type Stats struct {
	Submitted, Admitted                      int64
	Completed, Degraded, Rejected, Cancelled int64
	QueueHighWater                           int
	BreakerTrips, BreakerProbes              int64
}

// Lost is the conservation residue: submitted requests without a terminal
// outcome. Zero after a drain — the invariant the chaos suite enforces.
func (st Stats) Lost() int64 {
	return st.Submitted - st.Completed - st.Degraded - st.Rejected - st.Cancelled
}

// Stats snapshots the accounting.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	hw := s.highWater
	s.mu.Unlock()
	return Stats{
		Submitted:      s.nSubmitted.Load(),
		Admitted:       s.nAdmitted.Load(),
		Completed:      s.nCompleted.Load(),
		Degraded:       s.nDegraded.Load(),
		Rejected:       s.nRejected.Load(),
		Cancelled:      s.nCancelled.Load(),
		QueueHighWater: hw,
		BreakerTrips:   s.nTrips.Load(),
		BreakerProbes:  s.nProbes.Load(),
	}
}

// pause/resume are test hooks: a paused server admits and queues requests
// but dispatches nothing, so tests can stage the queue deterministically.
func (s *Server) pause() {
	s.mu.Lock()
	s.paused = true
	s.mu.Unlock()
}

func (s *Server) resume() {
	s.mu.Lock()
	s.paused = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// resolve delivers p's terminal outcome. Exactly-once: the first caller
// wins, later calls are ignored (there are none by construction — every
// pending is owned by one goroutine at resolution time — but the guard
// keeps the invariant local). fromQueue says p was counted in s.inflight.
func (s *Server) resolve(p *pending, r *Response, fromQueue bool) {
	select {
	case <-p.ticket.done:
		return // already resolved
	default:
	}
	now := time.Now()
	r.Latency = now.Sub(p.queuedAt)
	if !p.popped.IsZero() {
		r.Wait = p.popped.Sub(p.queuedAt)
	} else if r.Outcome == OutcomeCancelled || r.Reason == "evicted" {
		r.Wait = now.Sub(p.queuedAt)
	}
	switch r.Outcome {
	case OutcomeCompleted:
		s.nCompleted.Add(1)
		s.cCompleted.Add(1)
		s.hLatency.Observe(r.Latency.Nanoseconds())
	case OutcomeDegraded:
		s.nDegraded.Add(1)
		s.metrics.Counter("serve_degraded", "reason", r.Reason).Add(1)
		s.hLatency.Observe(r.Latency.Nanoseconds())
	case OutcomeRejected:
		s.nRejected.Add(1)
		s.metrics.Counter("serve_rejected", "reason", r.Reason).Add(1)
	case OutcomeCancelled:
		s.nCancelled.Add(1)
		s.cCancelled.Add(1)
	}
	if p.span != nil {
		p.span.SetAttr("outcome", r.Outcome.String())
		if r.Reason != "" {
			p.span.SetAttr("reason", r.Reason)
		}
		p.span.End()
	}
	p.ticket.resp = r
	close(p.ticket.done)
	if fromQueue {
		s.mu.Lock()
		s.inflight--
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}
