package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"davinci/internal/trace"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// scaled is a scaled-down run: a one-second window (one pass on
// cold-tableI) after a single set-up.
func scaled(t *testing.T, w *workload, seed int64, traced bool) *result {
	t.Helper()
	res, err := runWorkload(w, options{seed: seed, seconds: 1, traced: traced, setups: 1})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct {
		t.Fatalf("%s: correctness gate failed: %v", w.name, res.Errors)
	}
	return res
}

func TestScaledDownWorkloads(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			res := scaled(t, w, 7, false)
			if res.Failed != 0 {
				t.Errorf("failed = %d, want 0 (outcomes %v)", res.Failed, res.Outcomes)
			}
			if !w.refusals && res.Succeeded != res.Offered {
				t.Errorf("%d of %d requests answered correctly; this workload refuses nothing", res.Succeeded, res.Offered)
			}
			if w.refusals && res.Succeeded == res.Offered {
				t.Errorf("all %d requests served; the overload workload should refuse some", res.Offered)
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("metric %s missing or with unit %q", m.name, v.Unit)
				}
				if !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("metric %s = %v, want a positive finite value", m.name, v.Value)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(endToEnd))
			}
		})
	}
}

// On steady-fig7 and cold-tableI the simulated cycles per request are a
// function of the request mix alone, which the seed fixes.
func TestSimCyclesDeterministic(t *testing.T) {
	for _, name := range []string{"steady-fig7", "cold-tableI"} {
		w := workloadByName(name)
		a := scaled(t, w, 3, false).Metrics["sim_cycles_per_request"].Value
		b := scaled(t, w, 3, false).Metrics["sim_cycles_per_request"].Value
		if a != b {
			t.Errorf("%s: sim_cycles_per_request %v then %v for the same seed", name, a, b)
		}
	}
}

func TestTracedRun(t *testing.T) {
	res := scaled(t, workloadByName("steady-fig7"), 5, true)
	for _, m := range perLayer {
		v, ok := res.Metrics[m.name]
		if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("per-layer metric %s: %+v (present %v)", m.name, v, ok)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(perLayer))
	}
	if d := res.Metrics["trace.spans_dropped"].Value; d != 0 {
		t.Errorf("trace.spans_dropped = %v, want 0", d)
	}
	for _, name := range spanSelfNames {
		if v := res.Metrics["span.self_ms_per_request."+name].Value; !(v > 0) {
			t.Errorf("span.self_ms_per_request.%s = %v, want > 0", name, v)
		}
	}
}

// BENCHMARK.json at the repository root mirrors the tables in this
// package; every declared metric is one the benchmark emits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, benchmark default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads declared, %d defined", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, defined %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d defined", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != m.bound) || !nameRE.MatchString(g.Name) {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 || m.bound > endToEnd[0].bound {
			t.Errorf("%s: bound %v outside (0, setup_s bound]", m.name, m.bound)
		}
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", endToEnd[0])
	}
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n, beyond int
	}{{200, 10}, {199, 9}, {1000, 50}, {20, 1}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		v, beyond := percentile(xs, 0.95)
		if beyond != tc.beyond || v != float64(tc.n-tc.beyond) {
			t.Errorf("p95 of %d samples = %v with %d beyond, want %d beyond", tc.n, v, beyond, tc.beyond)
		}
	}
	if v, _ := percentile([]float64{1, 2, 3}, 0.5); v != 2 {
		t.Errorf("p50 of 1..3 = %v", v)
	}
}

// The quartiles match Python's statistics.quantiles(xs, n=4), which the
// benchmark's spreads are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{10, 10, 12, 11}, 10, 11.75},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []trace.Span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "a", StartNS: 30, EndNS: 60},   // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", StartNS: 90, EndNS: 120},  // outlives its parent
		{ID: 5, Parent: 2, Name: "c", StartNS: 15, EndNS: 20},   // grandchild
		{ID: 6, Parent: 2, Name: "c", StartNS: 200, EndNS: 210}, // outside its parent
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 100 - 60, // children cover [10,60] and [90,100]
		"a":    (30 - 5) + 30,
		"b":    30,
		"c":    5 + 10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "latency_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "goodput_rps", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98}
	for _, tc := range []struct {
		m    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 106, 102}, "ok"},
		{lower, steady, []float64{120, 121, 119, 120, 122, 118}, "regressed"},
		{higher, steady, []float64{80, 81, 79, 80, 82, 78}, "regressed"},
		{higher, steady, []float64{120, 121, 119, 120, 122, 118}, "ok"},
		{lower, steady, []float64{60, 140, 100, 70, 130, 105}, "unresolved"},
		{lower, []float64{100, 140, 60, 70, 130, 105}, []float64{50, 52, 51, 53, 49, 50}, "ok"},
	} {
		if got, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.m.better, tc.a, tc.b, got, tc.want)
		}
	}
}

// Every run of a workload offers the same composition: whole blocks of
// each (shape, class) pair, due inside the window in order.
func TestScheduleBalanced(t *testing.T) {
	w := workloadByName("steady-fig7")
	for seed := int64(1); seed <= 3; seed++ {
		reqs := w.openSchedule(rand.New(rand.NewSource(seed)), 12*time.Second)
		if len(reqs) != 180 {
			t.Fatalf("seed %d: %d requests, want 15 rps x 12 s", seed, len(reqs))
		}
		count := map[request]int{}
		for i, r := range reqs {
			if r.due < 0 || r.due >= 12*time.Second || (i > 0 && r.due < reqs[i-1].due) {
				t.Fatalf("seed %d: request %d due at %v", seed, i, r.due)
			}
			r.due = 0
			count[r]++
		}
		if len(count) != len(w.shapes)*3 {
			t.Errorf("seed %d: %d distinct (shape, class) pairs", seed, len(count))
		}
		for r, c := range count {
			if c != 10 {
				t.Errorf("seed %d: pair %+v offered %d times, want 10", seed, r, c)
			}
		}
	}
}
