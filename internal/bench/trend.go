// Bench-trend regression gate: compare the metric snapshots two
// davinci-bench runs wrote (-metrics, the CI BENCH_<rev>.json artifact)
// and fail on any drift of a gated metric in its bad direction. The
// gates cover the simulated cycle counts (deterministic), the optimizer /
// autoscheduler win counters and the serving smoke cell — the quantities
// the repo's sweeps are supposed to keep monotone — while host
// wall-clock metrics stay ungated: they measure the machine, not the
// code.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"davinci/internal/obs"
)

// TrendGate gates one metric of the snapshot.
type TrendGate struct {
	// Metric names the counter, gauge or histogram (histograms compare
	// their Sum).
	Metric string
	// HigherIsWorse: larger values are regressions (cycles, lost
	// requests); false means smaller values are (accepted-schedule
	// counts, cycles saved, goodput).
	HigherIsWorse bool
	// PerCell compares gauge cells label-set by label-set instead of the
	// metric's sum, so one layer getting slower cannot hide behind
	// another getting faster.
	PerCell bool
}

// DefaultTrendGates is the CI gate set.
func DefaultTrendGates() []TrendGate {
	return []TrendGate{
		// Simulated per-cell cycle counts: deterministic, zero drift.
		{Metric: "bench_cycles", HigherIsWorse: true, PerCell: true},
		{Metric: "bench_stall_cycles", HigherIsWorse: true, PerCell: true},
		{Metric: "sweep_program_cycles", HigherIsWorse: true},
		{Metric: "sweep_stall_cycles", HigherIsWorse: true},
		// Optimizer / autoscheduler win counters: shrinking means a pass
		// stopped firing or a search stopped winning.
		{Metric: "opt_rewrites", HigherIsWorse: false},
		{Metric: "opt_cycles_saved", HigherIsWorse: false},
		{Metric: "sched_accepted", HigherIsWorse: false},
		{Metric: "sched_cycles_saved", HigherIsWorse: false},
		// Serving smoke: the deterministic load cell must keep completing
		// everything it completes today, shed nothing new, and never lose
		// a request — conservation violations gate with zero tolerance on
		// every cell.
		{Metric: "serve_goodput", HigherIsWorse: false},
		{Metric: "serve_shed_requests", HigherIsWorse: true},
		{Metric: "serve_lost_requests", HigherIsWorse: true, PerCell: true},
	}
}

// TrendDelta is one gate's verdict.
type TrendDelta struct {
	Metric string
	// Cell is the gauge label set when the gate compares per cell and
	// this row is a cell (empty for whole-metric rows).
	Cell string
	// Base and Latest are the compared values.
	Base, Latest float64
	// Delta is the fractional change (latest-base)/|base|; 0 when the
	// base is 0.
	Delta float64
	// Regressed marks any bad-direction drift, or a metric present in the
	// baseline but gone from the latest run.
	Regressed bool
	// Skipped marks a gate whose metric the baseline does not carry (a
	// gate added after the baseline was committed).
	Skipped bool
	// Missing marks a metric the latest snapshot lost.
	Missing bool
}

func (d TrendDelta) verdict() string {
	switch {
	case d.Missing:
		return "MISSING"
	case d.Regressed:
		return "REGRESSED"
	case d.Skipped:
		return "skipped (not in baseline)"
	default:
		return "ok"
	}
}

// TrendReport is the comparison of one snapshot pair.
type TrendReport struct {
	BaseName, LatestName string
	Deltas               []TrendDelta
}

// Failed reports whether any gate regressed.
func (r *TrendReport) Failed() bool {
	for _, d := range r.Deltas {
		if d.Regressed {
			return true
		}
	}
	return false
}

// Format renders the report as an aligned table.
func (r *TrendReport) Format(w io.Writer) {
	fmt.Fprintf(w, "== trend: %s -> %s ==\n", r.BaseName, r.LatestName)
	name := len("metric")
	for _, d := range r.Deltas {
		if n := len(d.Metric) + len(d.Cell); n > name {
			name = n
		}
	}
	fmt.Fprintf(w, "%-*s  %14s  %14s  %8s  %s\n", name+1, "metric", "base", "latest", "delta", "verdict")
	for _, d := range r.Deltas {
		label := d.Metric
		if d.Cell != "" {
			label += "{" + d.Cell + "}"
		}
		fmt.Fprintf(w, "%-*s  %14.0f  %14.0f  %+7.2f%%  %s\n",
			name+1, label, d.Base, d.Latest, 100*d.Delta, d.verdict())
	}
}

// cellKey renders a label set deterministically ("experiment=fig7a,...").
func cellKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+labels[k])
	}
	return strings.Join(parts, ",")
}

// metricValues extracts every value a snapshot holds for one metric
// name, keyed by label set: counters and gauges directly, histograms as
// their Sum.
func metricValues(s *obs.Snapshot, name string) map[string]float64 {
	var out map[string]float64
	add := func(labels map[string]string, v float64) {
		if out == nil {
			out = map[string]float64{}
		}
		out[cellKey(labels)] += v
	}
	for _, c := range s.Counters {
		if c.Name == name {
			add(c.Labels, float64(c.Value))
		}
	}
	for _, g := range s.Gauges {
		if g.Name == name {
			add(g.Labels, float64(g.Value))
		}
	}
	for _, h := range s.Histograms {
		if h.Name == name {
			add(h.Labels, float64(h.Sum))
		}
	}
	return out
}

func sum(m map[string]float64) float64 {
	var t float64
	for _, v := range m {
		t += v
	}
	return t
}

// worse reports whether latest drifted in the gate's bad direction
// relative to base.
func (g TrendGate) worse(base, latest float64) bool {
	if g.HigherIsWorse {
		return latest > base
	}
	return latest < base
}

func frac(base, latest float64) float64 {
	if base == 0 {
		return 0
	}
	d := base
	if d < 0 {
		d = -d
	}
	return (latest - base) / d
}

// Trend compares latest against base under the gates.
func Trend(baseName string, base *obs.Snapshot, latestName string, latest *obs.Snapshot, gates []TrendGate) *TrendReport {
	r := &TrendReport{BaseName: baseName, LatestName: latestName}
	for _, g := range gates {
		bv := metricValues(base, g.Metric)
		lv := metricValues(latest, g.Metric)
		switch {
		case bv == nil:
			r.Deltas = append(r.Deltas, TrendDelta{Metric: g.Metric, Latest: sum(lv), Skipped: true})
		case lv == nil:
			// The metric vanished: a silent loss of coverage is itself a
			// regression, whatever the direction.
			r.Deltas = append(r.Deltas, TrendDelta{Metric: g.Metric, Base: sum(bv), Regressed: true, Missing: true})
		case g.PerCell:
			cells := make([]string, 0, len(bv))
			for cell := range bv {
				cells = append(cells, cell)
			}
			sort.Strings(cells)
			any := false
			for _, cell := range cells {
				b := bv[cell]
				l, ok := lv[cell]
				if !ok {
					r.Deltas = append(r.Deltas, TrendDelta{Metric: g.Metric, Cell: cell, Base: b, Regressed: true, Missing: true})
					any = true
					continue
				}
				if g.worse(b, l) {
					r.Deltas = append(r.Deltas, TrendDelta{Metric: g.Metric, Cell: cell, Base: b, Latest: l, Delta: frac(b, l), Regressed: true})
					any = true
				}
			}
			if !any {
				r.Deltas = append(r.Deltas, TrendDelta{Metric: g.Metric, Base: sum(bv), Latest: sum(lv), Delta: frac(sum(bv), sum(lv))})
			}
		default:
			b, l := sum(bv), sum(lv)
			r.Deltas = append(r.Deltas, TrendDelta{
				Metric: g.Metric, Base: b, Latest: l, Delta: frac(b, l),
				Regressed: g.worse(b, l),
			})
		}
	}
	return r
}

// LoadSnapshot reads one -metrics JSON snapshot.
func LoadSnapshot(path string) (*obs.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s obs.Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &s, nil
}

// TrendFiles loads the snapshot files in order and compares each
// consecutive pair, so a directory of historical artifacts is checked
// pairwise along its timeline.
func TrendFiles(paths []string, gates []TrendGate) ([]*TrendReport, error) {
	if len(paths) < 2 {
		return nil, fmt.Errorf("bench: trend needs at least two snapshots, got %d", len(paths))
	}
	snaps := make([]*obs.Snapshot, len(paths))
	for i, p := range paths {
		s, err := LoadSnapshot(p)
		if err != nil {
			return nil, err
		}
		snaps[i] = s
	}
	var reports []*TrendReport
	for i := 1; i < len(paths); i++ {
		reports = append(reports,
			Trend(filepath.Base(paths[i-1]), snaps[i-1], filepath.Base(paths[i]), snaps[i], gates))
	}
	return reports, nil
}

// TrendDir lists a directory's BENCH_*.json snapshots ordered oldest to
// newest (the artifact names carry revision hashes, which do not sort
// chronologically). When every snapshot embeds a capture timestamp
// (taken_unix_nanos, stamped by the artifact writers) the files sort by
// it; otherwise the order falls back to filesystem modification time,
// which CI artifact downloads and git checkouts are free to rewrite.
func TrendDir(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	type entry struct {
		path  string
		taken int64
		mod   int64
	}
	entries := make([]entry, 0, len(matches))
	allTaken := true
	for _, m := range matches {
		fi, err := os.Stat(m)
		if err != nil {
			return nil, err
		}
		e := entry{path: m, mod: fi.ModTime().UnixNano()}
		if data, err := os.ReadFile(m); err == nil {
			var stamp struct {
				TakenUnixNanos int64 `json:"taken_unix_nanos"`
			}
			if json.Unmarshal(data, &stamp) == nil {
				e.taken = stamp.TakenUnixNanos
			}
		}
		if e.taken <= 0 {
			allTaken = false
		}
		entries = append(entries, e)
	}
	key := func(e entry) int64 { return e.mod }
	if allTaken {
		key = func(e entry) int64 { return e.taken }
	}
	sort.Slice(entries, func(i, j int) bool {
		if key(entries[i]) != key(entries[j]) {
			return key(entries[i]) < key(entries[j])
		}
		return entries[i].path < entries[j].path
	})
	paths := make([]string, len(entries))
	for i, e := range entries {
		paths[i] = e.path
	}
	return paths, nil
}
