package serve

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"davinci/internal/chip"
	"davinci/internal/faults"
	"davinci/internal/obs"
	"davinci/internal/trace"
)

// chaosServer builds a small fleet under heavy seeded fault injection:
// 30% per-attempt fault rate across every kind (transient faults, ECC
// bit flips, and the two hangs: dropped flags and stuck pipes), with
// fault schedules that outlast the chip-level retry budget so failures
// escalate to the serving layer's breakers and degradation.
func chaosServer(reg *obs.Registry, tc trace.Ctx) *Server {
	inj := faults.New(faults.Config{
		Seed:       1234,
		Rate:       0.3,
		MaxPerTile: 3,
	}, nil)
	return New(Config{
		Chips: 2, Cores: 2,
		Resilience: chip.Resilience{
			Enabled:     true,
			Injector:    inj,
			MaxAttempts: 2,
		},
		QueueLimit:       8, // small: overload must hit queue_full and eviction
		MaxBatch:         4,
		SLO:              2 * time.Millisecond,
		CyclesPerSecond:  1e8,
		DegradeOnFailure: true,
		BreakerFailLimit: 2,
		BreakerCooldown:  20 * time.Millisecond,
		Metrics:          reg,
		Trace:            tc,
	})
}

// TestServeChaosConservation is the headline robustness gate: offered
// load well beyond capacity (a closed burst of 48 requests against an
// 8-deep queue), 30% fault injection, mixed priority classes and
// deadlines — and still, every request reaches exactly one terminal
// outcome, completed outputs are bit-identical to the golden model, the
// queue never exceeds its bound, goodput stays above zero and no span
// leaks.
func TestServeChaosConservation(t *testing.T) {
	tr := trace.New()
	tr.SetMaxSpans(512) // exercise bounded retention under load too
	reg := obs.NewRegistry()
	s := chaosServer(reg, tr.Root())
	defer s.Close()

	rng := rand.New(rand.NewSource(99))
	type item struct {
		req Request
		tk  *Ticket
	}
	var items []item
	var cancels []context.CancelFunc
	const offered = 48
	for i := 0; i < offered; i++ {
		kernel := "maxpool"
		if i%2 == 1 {
			kernel = "avgpool"
		}
		req := Request{
			Kernel: kernel,
			Params: smallParams(),
			Input:  smallInput(rng, 1),
			Class:  Class(i % 3),
		}
		ctx := context.Background()
		if i%4 == 3 { // a quarter carry tight-ish deadlines
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(20+i)*time.Millisecond)
			cancels = append(cancels, cancel)
		}
		items = append(items, item{req, s.Submit(ctx, req)})
	}

	var completed, degraded, rejected, cancelled int64
	for i, it := range items {
		r := it.tk.Wait()
		if again := it.tk.Wait(); again != r {
			t.Fatalf("request %d: Wait not idempotent", i)
		}
		switch r.Outcome {
		case OutcomeCompleted:
			completed++
			if !bytes.Equal(r.Output.Data, refFor(it.req).Data) {
				t.Fatalf("request %d: completed output not bit-identical to golden model", i)
			}
		case OutcomeDegraded:
			degraded++
			if !bytes.Equal(r.Output.Data, refFor(it.req).Data) {
				t.Fatalf("request %d: degraded output not bit-identical to golden model", i)
			}
		case OutcomeRejected:
			rejected++
			if r.Err == nil || r.Reason == "" {
				t.Fatalf("request %d: rejection without typed error/reason", i)
			}
		case OutcomeCancelled:
			cancelled++
		default:
			t.Fatalf("request %d: no terminal outcome", i)
		}
	}
	for _, cancel := range cancels {
		cancel()
	}
	s.Drain()

	// Exact conservation, cross-checked three ways: per-ticket tallies,
	// the server's accounting, and the published counters.
	if total := completed + degraded + rejected + cancelled; total != offered {
		t.Fatalf("ticket outcomes sum to %d, offered %d", total, offered)
	}
	st := s.Stats()
	if st.Lost() != 0 {
		t.Fatalf("conservation violated: %d lost (%+v)", st.Lost(), st)
	}
	if st.Completed != completed || st.Degraded != degraded ||
		st.Rejected != rejected || st.Cancelled != cancelled {
		t.Fatalf("server accounting %+v disagrees with ticket tallies %d/%d/%d/%d",
			st, completed, degraded, rejected, cancelled)
	}
	snap := reg.Snapshot()
	if v, _ := snap.CounterValue("serve_completed"); v != completed {
		t.Fatalf("serve_completed counter %d != %d", v, completed)
	}
	if v, _ := snap.CounterValue("serve_cancelled"); v != cancelled {
		t.Fatalf("serve_cancelled counter %d != %d", v, cancelled)
	}

	// Bounded queue memory: the intake queue never outgrew its limit.
	if st.QueueHighWater > 8 {
		t.Fatalf("queue high-water %d exceeds limit 8", st.QueueHighWater)
	}
	// Liveness: the fleet made forward progress despite 30% chaos.
	if completed+degraded == 0 {
		t.Fatal("goodput zero: nothing completed or degraded")
	}
	// Span hygiene under chaos: nothing leaked, retention stayed capped.
	if tr.Active() != 0 {
		t.Fatalf("span leak: Active = %d", tr.Active())
	}
	if tr.Len() > 512 {
		t.Fatalf("retention cap breached: %d spans", tr.Len())
	}

	// The fault schedule is seeded and per-(tile, attempt) deterministic:
	// a solo request's outcome is reproducible. Serve a few after the
	// storm to pin goodput > 0 deterministically.
	for i := 0; i < 3; i++ {
		req := Request{Kernel: "maxpool", Params: smallParams(), Input: smallInput(rng, 1), Class: ClassInteractive}
		r := s.Do(context.Background(), req)
		if r.Outcome != OutcomeCompleted && r.Outcome != OutcomeDegraded {
			t.Fatalf("post-storm request %d: %s / %v", i, r.Outcome, r.Err)
		}
		if !bytes.Equal(r.Output.Data, refFor(req).Data) {
			t.Fatalf("post-storm request %d: output differs from golden model", i)
		}
	}
}

// TestServeChaosCancellationStorm drives the fleet with deadlines so
// tight that most requests expire while queued or in flight: the
// conservation invariant must hold when cancellation, not completion, is
// the common case.
func TestServeChaosCancellationStorm(t *testing.T) {
	tr := trace.New()
	reg := obs.NewRegistry()
	s := chaosServer(reg, tr.Root())
	defer s.Close()

	rng := rand.New(rand.NewSource(7))
	type item struct {
		req Request
		tk  *Ticket
	}
	var items []item
	var cancels []context.CancelFunc
	const offered = 24
	for i := 0; i < offered; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%5)*time.Millisecond)
		cancels = append(cancels, cancel)
		req := Request{
			Kernel: "maxpool",
			Params: smallParams(),
			Input:  smallInput(rng, 1),
			Class:  Class(i % 3),
		}
		items = append(items, item{req, s.Submit(ctx, req)})
	}
	for i, it := range items {
		r := it.tk.Wait()
		if r.Outcome == OutcomeCompleted || r.Outcome == OutcomeDegraded {
			if !bytes.Equal(r.Output.Data, refFor(it.req).Data) {
				t.Fatalf("request %d: output differs from golden model", i)
			}
		}
	}
	for _, cancel := range cancels {
		cancel()
	}
	s.Drain()
	if st := s.Stats(); st.Lost() != 0 {
		t.Fatalf("conservation violated under cancellation storm: %+v", st)
	}
	if tr.Active() != 0 {
		t.Fatalf("span leak: Active = %d", tr.Active())
	}
}
