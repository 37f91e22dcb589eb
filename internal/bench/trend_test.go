package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"davinci/internal/obs"
)

// trendSnap builds a snapshot with the gated metrics at sane values.
func trendSnap(mutate func(*obs.Registry)) *obs.Snapshot {
	r := obs.NewRegistry()
	r.Gauge("bench_cycles", "experiment", "fig7a", "input", "a", "impl", "standard").Set(1000)
	r.Gauge("bench_cycles", "experiment", "fig7a", "input", "a", "impl", "im2col").Set(400)
	r.Histogram("sweep_program_cycles", nil).Observe(5000)
	r.Counter("opt_rewrites").Add(40)
	r.Counter("opt_cycles_saved").Add(900)
	r.Counter("sched_accepted").Add(12)
	r.Counter("sched_cycles_saved").Add(800)
	r.Gauge("serve_goodput", "experiment", "serveload", "input", "smoke").Set(48)
	r.Gauge("serve_shed_requests", "experiment", "serveload", "input", "smoke").Set(0)
	r.Gauge("serve_lost_requests", "experiment", "serveload", "input", "smoke").Set(0)
	if mutate != nil {
		mutate(r)
	}
	return r.Snapshot()
}

func TestTrendCleanHistoryPasses(t *testing.T) {
	base := trendSnap(nil)
	latest := trendSnap(func(r *obs.Registry) {
		// Strictly-better drift: fewer cycles, more wins.
		r.Gauge("bench_cycles", "experiment", "fig7a", "input", "a", "impl", "im2col").Set(390)
		r.Counter("sched_accepted").Add(1)
	})
	rep := Trend("base", base, "latest", latest, DefaultTrendGates())
	if rep.Failed() {
		var b strings.Builder
		rep.Format(&b)
		t.Fatalf("clean history flagged as regression:\n%s", b.String())
	}
}

func TestTrendCycleRegressionFails(t *testing.T) {
	base := trendSnap(nil)
	latest := trendSnap(func(r *obs.Registry) {
		// One cell gets slower while the other improves: the per-cell
		// gate must still fire (sums would mask it).
		r.Gauge("bench_cycles", "experiment", "fig7a", "input", "a", "impl", "standard").Set(1100)
		r.Gauge("bench_cycles", "experiment", "fig7a", "input", "a", "impl", "im2col").Set(10)
	})
	rep := Trend("base", base, "latest", latest, DefaultTrendGates())
	if !rep.Failed() {
		t.Fatal("per-cell cycle regression not detected")
	}
	found := false
	for _, d := range rep.Deltas {
		if d.Metric == "bench_cycles" && d.Regressed && strings.Contains(d.Cell, "impl=standard") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a regressed bench_cycles cell naming impl=standard, got %+v", rep.Deltas)
	}
}

func TestTrendWinCounterDropFails(t *testing.T) {
	base := trendSnap(nil)
	// Counters only go up, so build the "dropped" snapshot fresh with a
	// lower sched_accepted.
	latest := func() *obs.Snapshot {
		r := obs.NewRegistry()
		s := trendSnap(nil)
		for _, c := range s.Counters {
			v := c.Value
			if c.Name == "sched_accepted" {
				v = 5 // dropped from 12
			}
			r.Counter(c.Name).Add(v)
		}
		for _, g := range s.Gauges {
			kv := make([]string, 0, 2*len(g.Labels))
			for k, val := range g.Labels {
				kv = append(kv, k, val)
			}
			r.Gauge(g.Name, kv...).Set(g.Value)
		}
		r.Histogram("sweep_program_cycles", nil).Observe(5000)
		return r.Snapshot()
	}()
	rep := Trend("base", base, "latest", latest, DefaultTrendGates())
	if !rep.Failed() {
		t.Fatal("sched_accepted drop not detected")
	}
}

func TestTrendMissingMetricFails(t *testing.T) {
	base := trendSnap(nil)
	empty := obs.NewRegistry().Snapshot()
	rep := Trend("base", base, "latest", empty, DefaultTrendGates())
	if !rep.Failed() {
		t.Fatal("metric vanishing entirely not flagged")
	}
	// The reverse — a gate the baseline predates — must be skipped, not
	// failed.
	rep = Trend("base", empty, "latest", base, DefaultTrendGates())
	if rep.Failed() {
		t.Fatal("gates absent from the baseline must skip, not fail")
	}
	skipped := 0
	for _, d := range rep.Deltas {
		if d.Skipped {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("expected skipped gates against an empty baseline")
	}
}

func TestTrendFilesAndDirOrdering(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, s *obs.Snapshot, mod time.Time) string {
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := os.Chtimes(p, mod, mod); err != nil {
			t.Fatal(err)
		}
		return p
	}
	t0 := time.Now().Add(-2 * time.Hour)
	// Names sort against the timeline on purpose: ordering must follow
	// modification time, not the revision hash in the name.
	write("BENCH_zzz.json", trendSnap(nil), t0)
	write("BENCH_aaa.json", trendSnap(func(r *obs.Registry) {
		r.Gauge("bench_cycles", "experiment", "fig7a", "input", "a", "impl", "im2col").Set(395)
	}), t0.Add(time.Hour))

	paths, err := TrendDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || filepath.Base(paths[0]) != "BENCH_zzz.json" {
		t.Fatalf("want modtime ordering [BENCH_zzz BENCH_aaa], got %v", paths)
	}
	reports, err := TrendFiles(paths, DefaultTrendGates())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Failed() {
		t.Fatalf("improving history must pass, got %d report(s), failed=%v", len(reports), len(reports) > 0 && reports[0].Failed())
	}

	// Injected synthetic regression: a newer snapshot with a slower cell
	// must fail the gate.
	write("BENCH_bad.json", trendSnap(func(r *obs.Registry) {
		r.Gauge("bench_cycles", "experiment", "fig7a", "input", "a", "impl", "im2col").Set(500)
	}), t0.Add(90*time.Minute))
	paths, err = TrendDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	reports, err = TrendFiles(paths, DefaultTrendGates())
	if err != nil {
		t.Fatal(err)
	}
	if !reports[len(reports)-1].Failed() {
		t.Fatal("synthetic regression in the newest snapshot not detected")
	}
}

func TestTrendNeedsTwoSnapshots(t *testing.T) {
	if _, err := TrendFiles([]string{"one.json"}, DefaultTrendGates()); err == nil {
		t.Fatal("want an error for a single snapshot")
	}
}

func TestTrendServeGates(t *testing.T) {
	base := trendSnap(nil)
	// Goodput dropping is a regression (lower is worse).
	worseGoodput := trendSnap(func(r *obs.Registry) {
		r.Gauge("serve_goodput", "experiment", "serveload", "input", "smoke").Set(40)
	})
	if rep := Trend("base", base, "latest", worseGoodput, DefaultTrendGates()); !rep.Failed() {
		t.Fatal("serve_goodput drop not detected")
	}
	// A single lost request anywhere fails with zero tolerance, per cell.
	lost := trendSnap(func(r *obs.Registry) {
		r.Gauge("serve_lost_requests", "experiment", "serveload", "input", "smoke").Set(1)
	})
	if rep := Trend("base", base, "latest", lost, DefaultTrendGates()); !rep.Failed() {
		t.Fatal("lost request not detected")
	}
	// New shedding in the smoke cell fails too.
	shed := trendSnap(func(r *obs.Registry) {
		r.Gauge("serve_shed_requests", "experiment", "serveload", "input", "smoke").Set(3)
	})
	if rep := Trend("base", base, "latest", shed, DefaultTrendGates()); !rep.Failed() {
		t.Fatal("new shedding not detected")
	}
}

func TestTrendDirPrefersEmbeddedTimestamp(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, taken int64, mod time.Time) {
		s := trendSnap(nil)
		s.TakenUnixNanos = taken
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := os.Chtimes(p, mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	// Modtimes deliberately contradict the embedded capture times — the
	// situation a CI artifact download or git checkout creates. The
	// embedded order must win.
	now := time.Now()
	write("BENCH_new.json", 2_000_000, now.Add(-2*time.Hour)) // newest capture, oldest file
	write("BENCH_old.json", 1_000_000, now)                   // oldest capture, newest file
	paths, err := TrendDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || filepath.Base(paths[0]) != "BENCH_old.json" || filepath.Base(paths[1]) != "BENCH_new.json" {
		t.Fatalf("want embedded-timestamp ordering [BENCH_old BENCH_new], got %v", paths)
	}

	// One unstamped file poisons the set: everything falls back to
	// modtime so the ordering stays internally consistent.
	write("BENCH_unstamped.json", 0, now.Add(-time.Hour))
	paths, err = TrendDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BENCH_new.json", "BENCH_unstamped.json", "BENCH_old.json"}
	for i, p := range paths {
		if filepath.Base(p) != want[i] {
			t.Fatalf("want modtime fallback ordering %v, got %v", want, paths)
		}
	}
}
