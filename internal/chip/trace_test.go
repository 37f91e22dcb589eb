package chip

import (
	"sync"
	"testing"

	"davinci/internal/faults"
	"davinci/internal/trace"
)

// TestSpanConsistencyConcurrentReplays hammers one chip's plan cache
// from concurrent runs of the same shape and checks the span stream is
// exact and leak-free: every run gets its chip_run / plan_lookup pair,
// the compile is singleflighted into exactly one plan_compile span, and
// every tile_exec links back to its own run's plan_lookup. Run under
// -race in CI.
func TestSpanConsistencyConcurrentReplays(t *testing.T) {
	p, c1 := chaosLayer()
	in := chaosInput(t, p, 1, c1)
	tracer := trace.New()
	c := New(Config{Cores: 4, Trace: tracer.Root()})

	const runs = 8
	errs := make(chan error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.MaxPoolForward("im2col", in, p)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if n := tracer.Active(); n != 0 {
		t.Fatalf("span leak: %d spans still active after all runs ended", n)
	}
	tiles := 1 * c1
	for _, want := range []struct {
		name string
		n    int
	}{
		{"chip_run", runs},
		{"plan_lookup", runs},
		{"plan_compile", 1},
		{"tile_exec", runs * tiles},
		{"tile_degrade", 0},
	} {
		if got := tracer.Count(want.name); got != want.n {
			t.Errorf("span %s: got %d, want %d", want.name, got, want.n)
		}
	}

	spans := tracer.Finished()
	byID := make(map[trace.SpanID]*trace.Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	misses := 0
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "plan_lookup":
			if out, _ := s.Attr("outcome"); out == "miss" {
				misses++
			}
		case "tile_exec":
			linked := false
			for _, l := range s.Links {
				if l.Kind == "plan" {
					target, ok := byID[l.Target]
					if !ok || target.Name != "plan_lookup" {
						t.Fatalf("tile_exec %d: plan link to %d is not a plan_lookup span", s.ID, l.Target)
					}
					// The link must stay inside the tile's own run.
					if target.Parent != s.Parent {
						t.Fatalf("tile_exec %d links to plan_lookup %d of a different chip_run", s.ID, target.ID)
					}
					linked = true
				}
			}
			if !linked {
				t.Fatalf("tile_exec %d has no plan link", s.ID)
			}
		}
	}
	if misses != 1 {
		t.Errorf("plan_lookup outcome=miss: got %d, want exactly 1 (singleflighted compile)", misses)
	}
	checkAttemptAccounting(t, tracer, c)
}

// checkAttemptAccounting asserts that every tile_exec span carries an
// attempt attribute and that the chip observed exactly one
// chip_tile_wall_nanos sample per tile_exec span.
func checkAttemptAccounting(t *testing.T, tracer *trace.Tracer, c *Chip) {
	t.Helper()
	spans := 0
	for _, s := range tracer.Finished() {
		if s.Name != "tile_exec" {
			continue
		}
		spans++
		if _, ok := s.Attr("attempt"); !ok {
			t.Fatalf("tile_exec %d carries no attempt attribute", s.ID)
		}
	}
	h, ok := c.Metrics().Snapshot().HistogramValue("chip_tile_wall_nanos")
	if !ok {
		t.Fatal("chip_tile_wall_nanos missing from the snapshot")
	}
	if h.Count != int64(spans) {
		t.Errorf("chip_tile_wall_nanos observed %d attempts, want one per tile_exec span (%d)", h.Count, spans)
	}
}

// TestSpanConsistencyRetryStorm replays a seeded fault schedule through
// concurrent fault-tolerant runs and checks the spans match the schedule
// exactly: faults.Injector.Decide is pure per (tile, attempt), so the
// expected number of attempts, retry links and degrades is computable
// up front and must hold for every one of the concurrent runs. Run
// under -race in CI.
func TestSpanConsistencyRetryStorm(t *testing.T) {
	p, c1 := chaosLayer()
	in := chaosInput(t, p, 1, c1)

	const maxAttempts = 3
	inj := faults.New(faults.Config{
		Seed: 42,
		Rate: 0.6,
		// Every attempt may fault, so tiles can exhaust the budget and
		// degrade — the default would guarantee first retries succeed.
		// Every kind is drawn: each fails its attempt as soon as it fires.
		MaxPerTile: maxAttempts,
	}, nil)

	// Replay the decision schedule the executor will see.
	expAttempts, expRetries, expDegrades := 0, 0, 0
	for c := 0; c < c1; c++ {
		exhausted := true
		for a := 1; a <= maxAttempts; a++ {
			expAttempts++
			if a > 1 {
				expRetries++
			}
			if inj.Decide(faults.Tile{N: 0, C1: c}, a).Kind == faults.KindNone {
				exhausted = false
				break
			}
		}
		if exhausted {
			expDegrades++
		}
	}
	if expRetries == 0 || expDegrades == 0 {
		t.Fatalf("seed 42 schedule exercises no retries (%d) or degrades (%d); pick a seed that does",
			expRetries, expDegrades)
	}

	tracer := trace.New()
	c := New(Config{Cores: 4, Trace: tracer.Root(), Resilience: Resilience{
		Enabled:       true,
		Injector:      inj,
		MaxAttempts:   maxAttempts,
		Degrade:       true,
		CoreFailLimit: 1 << 30, // cores never go bad: rebalancing would reshuffle the schedule
	}})

	const runs = 4
	errs := make(chan error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, st, err := c.MaxPoolForward("im2col", in, p)
			if err == nil && len(st.Degraded) != expDegrades {
				t.Errorf("degraded tiles: got %d, want %d", len(st.Degraded), expDegrades)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if n := tracer.Active(); n != 0 {
		t.Fatalf("span leak: %d spans still active after the retry storm", n)
	}
	for _, want := range []struct {
		name string
		n    int
	}{
		{"chip_run", runs},
		{"plan_lookup", runs},
		{"plan_compile", 1},
		{"tile_exec", runs * expAttempts},
		{"tile_degrade", runs * expDegrades},
	} {
		if got := tracer.Count(want.name); got != want.n {
			t.Errorf("span %s: got %d, want %d", want.name, got, want.n)
		}
	}

	spans := tracer.Finished()
	byID := make(map[trace.SpanID]*trace.Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	retryLinks := 0
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "tile_exec":
			for _, l := range s.Links {
				if l.Kind != "retry_of" {
					continue
				}
				retryLinks++
				prev, ok := byID[l.Target]
				if !ok || prev.Name != "tile_exec" {
					t.Fatalf("tile_exec %d: retry_of %d is not a tile_exec span", s.ID, l.Target)
				}
				if out, _ := prev.Attr("outcome"); out != "error" {
					t.Fatalf("tile_exec %d retries attempt %d whose outcome is %q, want error", s.ID, prev.ID, out)
				}
				pn, _ := prev.Attr("n")
				pc, _ := prev.Attr("c1")
				sn, _ := s.Attr("n")
				sc, _ := s.Attr("c1")
				if pn != sn || pc != sc {
					t.Fatalf("tile_exec %d (%s,%s) retries a different tile (%s,%s)", s.ID, sn, sc, pn, pc)
				}
			}
		case "tile_degrade":
			linked := false
			for _, l := range s.Links {
				if l.Kind == "after" {
					prev, ok := byID[l.Target]
					if !ok || prev.Name != "tile_exec" {
						t.Fatalf("tile_degrade %d: after link %d is not a tile_exec span", s.ID, l.Target)
					}
					linked = true
				}
			}
			if !linked {
				t.Fatalf("tile_degrade %d has no after link to its final failed attempt", s.ID)
			}
		}
	}
	if retryLinks != runs*expRetries {
		t.Errorf("retry_of links: got %d, want %d", retryLinks, runs*expRetries)
	}
	checkAttemptAccounting(t, tracer, c)
}
