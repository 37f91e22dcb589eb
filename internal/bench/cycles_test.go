package bench

import (
	"fmt"
	"testing"

	"davinci/internal/buffer"
	"davinci/internal/chip"
	"davinci/internal/obs"
)

// TestCyclesMatchBaseline pins every simulated cycle count the paper's
// figures rest on: it recomputes each bench_cycles and bench_stall_cycles
// cell of the sweep, fig7a-c and avgpool experiments on the device
// davinci-bench builds by default, and requires it to equal the cell of
// the committed trend baseline (437 cells). CI's trend gate compares the
// same cells, and a change that moves cycles on purpose refreshes the
// baseline, which this test then reads. Under the race detector the
// experiments take minutes, so the test leaves them to that gate.
func TestCyclesMatchBaseline(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes the experiments slow; CI's trend gate checks the same cells")
	}
	base, err := LoadSnapshot("testdata/trend/BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{
		Chip: chip.Config{
			Cores:   chip.DefaultCores,
			Buffers: buffer.Config{UBSize: buffer.DefaultUBSize, L1Size: buffer.DefaultL1Size},
		},
		Seed:    1,
		Metrics: obs.NewRegistry(),
	}
	for _, run := range []func(Options) (*Table, error){TableISweep, Fig7a, Fig7b, Fig7c, AvgPool} {
		if _, err := run(o); err != nil {
			t.Fatal(err)
		}
	}
	want, got := cycleCells(base), cycleCells(o.Metrics.Snapshot())
	for cell, w := range want {
		if g, ok := got[cell]; !ok {
			t.Errorf("%s: missing, want %d", cell, w)
		} else if g != w {
			t.Errorf("%s = %d, want %d (%+.2f%%)", cell, g, w, 100*float64(g-w)/float64(w))
		}
	}
	for cell, g := range got {
		if _, ok := want[cell]; !ok {
			t.Errorf("%s = %d: not in the baseline", cell, g)
		}
	}
	if len(want) != 437 {
		t.Errorf("the baseline holds %d cycle cells of these experiments, want 437", len(want))
	}
}

// cycleCells returns the bench_cycles and bench_stall_cycles gauges of
// the sweep, fig7a-c and avgpool experiments in s, keyed by metric and
// label set.
func cycleCells(s *obs.Snapshot) map[string]int64 {
	experiments := map[string]bool{"sweep": true, "fig7a": true, "fig7b": true, "fig7c": true, "avgpool": true}
	cells := map[string]int64{}
	for _, g := range s.Gauges {
		if (g.Name == "bench_cycles" || g.Name == "bench_stall_cycles") && experiments[g.Labels["experiment"]] {
			cells[fmt.Sprintf("%s{%s}", g.Name, cellKey(g.Labels))] = g.Value
		}
	}
	return cells
}
