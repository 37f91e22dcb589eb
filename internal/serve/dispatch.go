package serve

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"davinci/internal/ops"
	"davinci/internal/tensor"
)

// batch is one assembled dispatch unit: same-shape members to run as one
// chip run (chip.RunBatch), plus requests that reached a terminal state
// at dequeue time (cancelled contexts, busted deadline budgets).
type batch struct {
	key       shapeKey
	chip      int
	members   []*pending
	cancelled []*pending
	rejected  []*pending
}

// dispatch is one chip's dispatcher loop: assemble the next batch, run
// it, repeat until the server closes and the queue drains.
func (s *Server) dispatch(sl *slot) {
	defer s.wg.Done()
	for {
		b := s.nextBatch(sl)
		if b == nil {
			return
		}
		s.runBatch(sl, b)
	}
}

// nextBatch blocks until work is available and the slot's breaker admits
// it, then pops a batch. Returns nil when the server has closed and the
// queue is drained.
func (s *Server) nextBatch(sl *slot) *batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed && s.queued == 0 {
			return nil
		}
		if !s.paused && s.queued > 0 {
			now := time.Now()
			if sl.admits(now) {
				limit := s.cfg.MaxBatch
				if sl.open {
					// Half-open probe: risk one request, not a full batch.
					limit = 1
					s.nProbes.Add(1)
					s.cProbes.Add(1)
				}
				if b := s.assembleLocked(sl, now, limit); b != nil {
					return b
				}
			} else if d := sl.wake(now); d > 0 && s.queued > 0 {
				// Parked behind an open breaker: ensure a wakeup at
				// cooldown expiry even if no new submission broadcasts.
				time.AfterFunc(d+time.Millisecond, s.cond.Broadcast)
			}
		}
		s.cond.Wait()
	}
}

// assembleLocked pops the oldest shape group FIFO into a batch of at most
// limit members, never packing a request whose predicted batch completion
// (static critical-path bound) would bust its own or any packed member's
// deadline. Requests that are dead on arrival at the head — cancelled
// context, or a deadline even a solo run can't meet — are popped into the
// batch's terminal lists so the queue can't be wedged by them.
func (s *Server) assembleLocked(sl *slot, now time.Time, limit int) *batch {
	var g *group
	for _, cand := range s.groups {
		if len(cand.reqs) == 0 {
			continue
		}
		if g == nil || cand.reqs[0].seq < g.reqs[0].seq {
			g = cand
		}
	}
	if g == nil {
		return nil
	}
	b := &batch{key: g.key, chip: sl.id}
	tiles := 0
	for len(g.reqs) > 0 && len(b.members) < limit {
		cand := g.reqs[0]
		if cand.ctx.Err() != nil {
			s.popLocked(g, cand)
			b.cancelled = append(b.cancelled, cand)
			continue
		}
		if cand.hasDL {
			solo := time.Duration(s.cyclesToNS(cand.cycles))
			if now.Add(solo).After(cand.deadline) {
				s.popLocked(g, cand)
				b.rejected = append(b.rejected, cand)
				continue
			}
		}
		pred := time.Duration(s.cyclesToNS(s.predictCycles(g.plan, tiles+cand.tiles)))
		end := now.Add(pred)
		if s.bustsDeadline(b.members, cand, end) {
			break // leave cand queued; it rides a later (smaller) batch
		}
		s.popLocked(g, cand)
		cand.popped = now
		b.members = append(b.members, cand)
		tiles += cand.tiles
	}
	s.inflight += len(b.members) + len(b.cancelled) + len(b.rejected)
	if len(b.members)+len(b.cancelled)+len(b.rejected) == 0 {
		return nil
	}
	b.key = g.key
	return b
}

// bustsDeadline reports whether a batch predicted to complete at end
// would miss cand's or any member's deadline.
func (s *Server) bustsDeadline(members []*pending, cand *pending, end time.Time) bool {
	if cand.hasDL && end.After(cand.deadline) {
		return true
	}
	for _, m := range members {
		if m.hasDL && end.After(m.deadline) {
			return true
		}
	}
	return false
}

// popLocked removes the head of g (which must be p) from the queue.
func (s *Server) popLocked(g *group, p *pending) {
	g.reqs = g.reqs[1:]
	s.queued--
	s.backlog -= p.cycles
	s.gDepth.Set(int64(s.queued))
}

// runBatch executes one batch on the slot's chip and resolves every
// member exactly once.
func (s *Server) runBatch(sl *slot, b *batch) {
	for _, p := range b.cancelled {
		s.resolve(p, &Response{
			Outcome: OutcomeCancelled,
			Err:     fmt.Errorf("%w: %v", ErrCancelled, p.ctx.Err()),
			Chip:    -1,
		}, true)
	}
	for _, p := range b.rejected {
		s.resolve(p, &Response{Outcome: OutcomeRejected, Err: ErrDeadlineBudget, Reason: "deadline", Chip: -1}, true)
	}
	if len(b.members) == 0 {
		return
	}

	span := s.tc.StartSpan("serve_batch",
		"chip", strconv.Itoa(sl.id),
		"impl", b.key.kernel.Program,
		"size", strconv.Itoa(len(b.members)))
	for _, p := range b.members {
		p.span.Link("batch", span.ID())
		s.hWait.Observe(p.popped.Sub(p.queuedAt).Nanoseconds())
	}
	s.cBatches.Add(1)
	s.hBatch.Observe(int64(len(b.members)))

	// The members' inputs go to the chip as they are: its tiles read them
	// in place, and each member gets its own output back.
	inputs := make([][]*tensor.Tensor, len(b.members))
	for i, p := range b.members {
		inputs[i] = []*tensor.Tensor{p.req.Input}
	}

	// Batch context: cancelled (interrupting the chip through the
	// core.Cancel path) once every member's context has expired. Members
	// without a cancellable context keep the batch alive, so watching is
	// only armed when all members carry one.
	bctx, bcancel := context.WithCancel(s.ctx)
	defer bcancel()
	allWatchable := true
	for _, p := range b.members {
		if p.ctx.Done() == nil {
			allWatchable = false
			break
		}
	}
	if allWatchable {
		var expired atomic.Int64
		n := int64(len(b.members))
		for _, p := range b.members {
			go func(done <-chan struct{}) {
				select {
				case <-done:
					if expired.Add(1) == n {
						bcancel()
					}
				case <-bctx.Done():
				}
			}(p.ctx.Done())
		}
	}

	view := sl.chip.WithContext(bctx).WithTrace(span.Ctx())
	outs, _, err := view.RunBatch(b.key.kernel.Name, ops.Dims{P: b.key.params}, inputs)

	switch {
	case err == nil:
		span.SetAttr("outcome", "ok")
		span.End()
		s.breakerSuccess(sl)
		for i, p := range b.members {
			s.resolve(p, &Response{
				Outcome:   OutcomeCompleted,
				Output:    outs[i][0],
				Chip:      sl.id,
				BatchSize: len(b.members),
			}, true)
		}
	case bctx.Err() != nil:
		// Every member expired and the batch was cancelled mid-flight;
		// not a chip failure, so the breaker is untouched.
		span.SetAttr("outcome", "cancelled")
		span.End()
		for _, p := range b.members {
			s.resolve(p, &Response{
				Outcome: OutcomeCancelled,
				Err:     fmt.Errorf("%w: %v", ErrCancelled, p.ctx.Err()),
				Chip:    -1,
			}, true)
		}
	default:
		span.SetAttr("outcome", "error")
		span.End()
		s.breakerFailure(sl)
		for _, p := range b.members {
			if p.ctx.Err() != nil {
				s.resolve(p, &Response{
					Outcome: OutcomeCancelled,
					Err:     fmt.Errorf("%w: %v", ErrCancelled, p.ctx.Err()),
					Chip:    -1,
				}, true)
				continue
			}
			if s.cfg.DegradeOnFailure {
				s.resolve(p, &Response{
					Outcome:   OutcomeDegraded,
					Output:    refCompute(b.key.kernel, &p.req),
					Reason:    "exec",
					Chip:      sl.id,
					BatchSize: len(b.members),
				}, true)
				continue
			}
			s.resolve(p, &Response{
				Outcome:   OutcomeRejected,
				Err:       fmt.Errorf("%w: %v", ErrChipFailed, err),
				Reason:    "exec",
				Chip:      sl.id,
				BatchSize: len(b.members),
			}, true)
		}
	}
}
