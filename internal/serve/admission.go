package serve

import (
	"context"
	"fmt"
	"time"

	"davinci/internal/ops"
	"davinci/internal/tensor"
)

// Submit admits one request and returns its ticket. The returned ticket
// always resolves: to a completed/degraded response, a typed rejection,
// or a cancellation — admission never blocks on the fleet, only on a
// cold-shape compile (which runs on this goroutine through the shared
// plan cache, so dispatchers always hit).
func (s *Server) Submit(ctx context.Context, req Request) *Ticket {
	if ctx == nil {
		ctx = context.Background()
	}
	now := time.Now()
	p := &pending{
		req:      req,
		ctx:      ctx,
		ticket:   newTicket(),
		queuedAt: now,
	}
	if dl, ok := ctx.Deadline(); ok {
		p.deadline, p.hasDL = dl, true
	}
	s.nSubmitted.Add(1)
	s.metrics.Counter("serve_submitted", "class", req.Class.String()).Add(1)
	p.span = s.tc.StartSpan("serve_request", "impl", req.impl(), "class", req.Class.String())

	admit := p.span.Ctx().StartSpan("serve_admit")
	outcome := func(o string) {
		if admit != nil {
			admit.SetAttr("outcome", o)
			admit.End()
		}
	}

	// Validate before compiling: cheap structural checks first.
	k, err := s.validate(&req)
	if err != nil {
		outcome("invalid")
		s.resolve(p, &Response{Outcome: OutcomeRejected, Err: err, Reason: "invalid", Chip: -1}, false)
		return p.ticket
	}

	// Admission fast-path: compile (or hit) the plan through the shared
	// shape-keyed cache. The fleet chips share this cache, so dispatch
	// never compiles; a cold shape pays its compile here, off the
	// dispatcher hot path. Strict spec: each compile lints its program
	// concretely before the plan is sealed.
	plan, err := s.plans.Plan(admit.Ctx(), k, s.spec, ops.Dims{P: req.Params})
	if err != nil {
		outcome("invalid")
		s.resolve(p, &Response{
			Outcome: OutcomeRejected,
			Err:     fmt.Errorf("%w: %v", ErrInvalid, err),
			Reason:  "invalid",
			Chip:    -1,
		}, false)
		return p.ticket
	}
	p.tiles = req.Input.Shape[0] * req.Input.Shape[1]
	p.cycles = s.predictCycles(plan, p.tiles)

	if ctx.Err() != nil {
		outcome("cancelled")
		s.resolve(p, &Response{Outcome: OutcomeCancelled, Err: fmt.Errorf("%w: %v", ErrCancelled, ctx.Err()), Chip: -1}, false)
		return p.ticket
	}

	// Deadline budget: if even an unqueued run cannot finish before the
	// deadline (static critical-path bound), reject now instead of
	// wasting chip time on a doomed request.
	if p.hasDL && time.Until(p.deadline) <= time.Duration(s.cyclesToNS(p.cycles)) {
		outcome("deadline")
		s.resolve(p, &Response{Outcome: OutcomeRejected, Err: ErrDeadlineBudget, Reason: "deadline", Chip: -1}, false)
		return p.ticket
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		outcome("closed")
		s.resolve(p, &Response{Outcome: OutcomeRejected, Err: ErrClosed, Reason: "closed", Chip: -1}, false)
		return p.ticket
	}

	// Load shedding: when the p99-predicted latency (current backlog
	// spread over the fleet, plus this request) exceeds the SLO, requests
	// are shed lowest class first.
	if shed, factor := s.shedsLocked(p); shed {
		s.mu.Unlock()
		outcome("shed")
		if s.cfg.DegradeOnOverload {
			out := refCompute(k, &req)
			s.resolve(p, &Response{Outcome: OutcomeDegraded, Output: out, Reason: "overload", Chip: -1}, false)
		} else {
			s.resolve(p, &Response{
				Outcome: OutcomeRejected,
				Err:     fmt.Errorf("%w: predicted latency %.1fx SLO", ErrShedding, factor),
				Reason:  "shed",
				Chip:    -1,
			}, false)
		}
		return p.ticket
	}

	// Bounded queue: full means evict a lower-class victim or reject.
	var victim *pending
	if s.queued >= s.cfg.QueueLimit {
		victim = s.evictLocked(req.Class)
		if victim == nil {
			s.mu.Unlock()
			outcome("queue_full")
			s.resolve(p, &Response{Outcome: OutcomeRejected, Err: ErrQueueFull, Reason: "queue_full", Chip: -1}, false)
			return p.ticket
		}
	}

	key := shapeKey{kernel: k, params: req.Params, c1: req.Input.Shape[1]}
	g := s.groups[key]
	if g == nil {
		g = &group{key: key, plan: plan}
		s.groups[key] = g
	}
	s.seq++
	p.seq = s.seq
	g.reqs = append(g.reqs, p)
	s.queued++
	if s.queued > s.highWater {
		s.highWater = s.queued
	}
	s.backlog += p.cycles
	s.gDepth.Set(int64(s.queued))
	s.cond.Broadcast()
	s.mu.Unlock()

	s.nAdmitted.Add(1)
	s.metrics.Counter("serve_admitted").Add(1)
	outcome("admitted")

	if victim != nil {
		shedSpan := s.tc.StartSpan("serve_shed",
			"class", victim.req.Class.String(),
			"impl", victim.req.impl())
		shedSpan.Link("batch", p.span.ID())
		shedSpan.End()
		s.resolve(victim, &Response{
			Outcome: OutcomeRejected,
			Err:     fmt.Errorf("%w: evicted by %s-class arrival", ErrShedding, req.Class),
			Reason:  "evicted",
			Chip:    -1,
		}, false)
	}
	return p.ticket
}

// validate resolves the request's catalogue kernel and runs the
// structural checks that don't need a compile.
func (s *Server) validate(req *Request) (*ops.Kernel, error) {
	k, err := ops.Lookup(req.Kernel + "_fwd/" + req.variant())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if err := req.Params.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if _, _, err := k.Grid(ops.Dims{P: req.Params}, []*tensor.Tensor{req.Input}); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return k, nil
}

// refCompute serves a request from kernel k's golden model (degraded
// path).
func refCompute(k *ops.Kernel, req *Request) *tensor.Tensor {
	return k.Golden(ops.Dims{P: req.Params}, []*tensor.Tensor{req.Input})[0]
}

// shedsLocked decides whether the shedding controller drops p. Classes
// shed in priority order: one SLO of predicted overload sheds ClassBatch,
// two shed ClassStandard too; ClassInteractive is never shed here.
func (s *Server) shedsLocked(p *pending) (bool, float64) {
	if s.cfg.SLO <= 0 {
		return false, 0
	}
	perChip := s.backlog / int64(len(s.slots))
	predicted := time.Duration(s.cyclesToNS(perChip + p.cycles))
	factor := float64(predicted) / float64(s.cfg.SLO)
	switch p.req.Class {
	case ClassBatch:
		return factor > 1, factor
	case ClassStandard:
		return factor > 2, factor
	default:
		return false, factor
	}
}

// evictLocked removes and returns the youngest queued request of the
// lowest class strictly below incoming, or nil if none exists.
func (s *Server) evictLocked(incoming Class) *pending {
	var victim *pending
	var vg *group
	var vi int
	for _, g := range s.groups {
		for i, q := range g.reqs {
			if q.req.Class >= incoming {
				continue
			}
			if victim == nil ||
				q.req.Class < victim.req.Class ||
				(q.req.Class == victim.req.Class && q.seq > victim.seq) {
				victim, vg, vi = q, g, i
			}
		}
	}
	if victim == nil {
		return nil
	}
	vg.reqs = append(vg.reqs[:vi], vg.reqs[vi+1:]...)
	s.queued--
	s.backlog -= victim.cycles
	s.gDepth.Set(int64(s.queued))
	return victim
}
