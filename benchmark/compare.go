package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// compareMain is `benchmark compare <base> <candidate>`: each argument is
// a directory of measured results files. For every end-to-end metric of
// every workload present on both sides it prints each side's median and
// quartiles, the change of the median, and a verdict; it exits 1 when any
// verdict is "regressed".
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare <base results dir> <candidate results dir>")
		return 2
	}
	base, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 2
	}
	cand, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 2
	}
	regressed := false
	fmt.Fprintf(stdout, "%-18s %-22s %5s %-28s %-28s %8s  %s\n",
		"workload", "metric", "runs", "base median [q1, q3]", "candidate median [q1, q3]", "change", "verdict")
	for _, w := range allWorkloads {
		a, b := base[w.name], cand[w.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, m := range endToEnd {
			va, vb := metricSeries(a, m.name), metricSeries(b, m.name)
			v, change := verdict(m, va, vb)
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(stdout, "%-18s %-22s %2d/%-2d %-28s %-28s %+7.2f%%  %s\n",
				w.name, m.name, len(va), len(vb), describe(va), describe(vb), 100*change, v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// verdict compares candidate runs b against base runs a under m's bound.
// change is the relative move of the median, positive when it got worse.
// A median worse by more than the bound is "regressed". Otherwise, when
// either side's quartile spread exceeds the bound, the runs cannot show
// the metric held, and it is "unresolved" unless every candidate run beats
// every base run.
func verdict(m metricDef, a, b []float64) (v string, change float64) {
	ma, mb := median(a), median(b)
	change = ratio(mb-ma, ma)
	if m.better == "higher" {
		change = -change
	}
	switch {
	case change > m.bound:
		return "regressed", change
	case spread(a) > m.bound || spread(b) > m.bound:
		if allBetter(m, a, b) {
			return "ok", change
		}
		return "unresolved", change
	}
	return "ok", change
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

func allBetter(m metricDef, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if m.better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

func metricSeries(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}

// loadResults reads every measured results file in dir, by workload.
func loadResults(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*result{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no measured results files", dir)
	}
	return out, nil
}
