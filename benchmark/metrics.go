package main

import (
	"strings"
	"syscall"
	"time"

	"davinci/internal/serve"
)

// metricDef declares one reported metric. The end-to-end and per-layer
// tables below are the benchmark's contract; BENCHMARK.json mirrors them
// and a test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is how far the median of an end-to-end metric may worsen, as
	// a share of the baseline median, before compare calls it a
	// regression. Per-layer metrics have none.
	bound float64
	// about says what the metric measures and, for a per-layer metric,
	// which end-to-end metric it should move on which workload.
	about string
}

// endToEnd are the metrics a user of the fleet sees, reported by every
// measured run (-trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"median over the run's set-ups (at least three, and 2 s) of building the fleet and warming every shape with two requests, at reference speed; references are computed before this clock"},
	{"goodput_rps", "req/s", "higher", 0.25,
		"correct answers per second from window start to the last outcome; at reference speed on overload-fig7-max and cold-tableI, where the host sets it"},
	{"slo_attainment", "ratio", "higher", 0.15,
		"share of offered requests answered correctly within the workload's latency limit at reference speed; a refusal is a miss"},
	{"served_ratio", "ratio", "higher", 0.15,
		"share of offered requests answered correctly at any latency; at reference speed on overload-fig7-max, where the host sets it"},
	{"latency_p50_ms", "ms", "lower", 0.25,
		"median latency of correct answers, from due time to outcome, at reference speed"},
	{"latency_p95_ms", "ms", "lower", 0.25,
		"p95 latency of correct answers by nearest rank, at reference speed; every workload yields at least 200 samples, so at least 10 lie beyond it"},
	{"cpu_ms_per_request", "ms", "lower", 0.25,
		"process user+sys CPU (getrusage) over the window per correct answer, at reference speed"},
	{"alloc_mb_per_request", "MB", "lower", 0.05,
		"Go heap bytes allocated (MemStats.TotalAlloc) over the window per correct answer"},
	{"peak_rss_mb", "MB", "lower", 0.25,
		"the process's peak resident set (getrusage maxrss, the kernel's VmHWM)"},
	{"sim_cycles_per_request", "cycles", "lower", 0.03,
		"simulated chip_tile_cycles summed over the window per correct answer; exact on steady-fig7 and cold-tableI"},
}

// perLayer are the per-layer metrics of a traced run (-trace 1).
var perLayer = []metricDef{
	{"serve.admit_us_p50", "us", "lower", 0, "time inside Submit; moves latency_p50_ms on cold-tableI (the compile runs in Submit) and goodput_rps on overload-fig7-max (the generator pays it); flat on steady-fig7"},
	{"serve.refused_ratio.queue_full", "ratio", "lower", 0, "share refused with a full queue; moves slo_attainment and served_ratio on overload-fig7-max, 0 elsewhere"},
	{"serve.refused_ratio.shed", "ratio", "lower", 0, "share shed by the SLO controller; moves slo_attainment and served_ratio on overload-fig7-max, 0 elsewhere"},
	{"serve.refused_ratio.evicted", "ratio", "lower", 0, "share evicted from the queue by a higher class; moves slo_attainment and served_ratio on overload-fig7-max, 0 elsewhere"},
	{"serve.refused_ratio.deadline", "ratio", "lower", 0, "share refused on deadline budget; no workload sets deadlines, so 0 unless admission changes"},
	{"serve.queue_wait_ms_p50", "ms", "lower", 0, "Response.Wait of correct answers; moves latency on overload-fig7-max, near 0 on steady-fig7; the server starts it at Submit entry, so on cold-tableI it includes the compile"},
	{"serve.queue_wait_ms_p95", "ms", "lower", 0, "p95 of Response.Wait; moves latency_p95_ms on overload-fig7-max"},
	{"serve.batch_size_mean", "count", "higher", 0, "mean batch a chip-served request rode in; moves goodput_rps on overload-fig7-max, about 1 on cold-tableI"},
	{"serve.exec_ms_p50", "ms", "lower", 0, "Response.Latency minus Wait; moves latency_p50_ms on steady-fig7 and chaos-fig7"},
	{"serve.degraded_ratio", "ratio", "lower", 0, "share served by the golden model after a batch failed on the chip; 0 while chaos-fig7 degrades single tiles instead, so it shows a change that fails batches"},
	{"gen.lag_ms_p99", "ms", "lower", 0, "how late the generator submitted, p99; a large value means the host, not the fleet, set latency"},
	{"ops.plan_misses", "count", "lower", 0, "plan-cache misses in the window; 48 per pass on cold-tableI (Xception 1 shares InceptionV3 1's 147x147 plans), 0 elsewhere"},
	{"ops.plan_hits", "count", "higher", 0, "plan-cache hits in the window"},
	{"ops.compile_ms_p50.im2col", "ms", "lower", 0, "strict compile of a Fig. 7 layer on a fresh PlanCache, im2col lowering; moves cold-tableI only"},
	{"ops.compile_ms_max.im2col", "ms", "lower", 0, "slowest such im2col compile; moves cold-tableI only"},
	{"ops.compile_ms_p50.standard", "ms", "lower", 0, "strict compile of a Fig. 7 layer, standard lowering (quadratic lint); moves cold-tableI only"},
	{"ops.compile_ms_max.standard", "ms", "lower", 0, "slowest such standard compile; moves cold-tableI only"},
	{"ops.first_run_ms_p50", "ms", "lower", 0, "first Plan.Run of a fresh Fig. 7 im2col plan on one tile (full scoreboard); moves cold-tableI only"},
	{"chip.tiles_per_request", "count", "lower", 0, "tiles run per correct answer"},
	{"chip.tile_attempts_per_tile", "count", "lower", 0, "hardware attempts per finished tile; above 1 only on chaos-fig7"},
	{"chip.tiles_degraded", "count", "lower", 0, "tiles computed by the golden model after exhausting their attempts: one per 35x35 request on chaos-fig7, where it moves latency_p95_ms; 0 elsewhere"},
	{"chip.run_ms_p50", "ms", "lower", 0, "chip_run span duration, one per batch"},
	{"chip.tile_wall_us_p50", "us", "lower", 0, "tile_exec span duration; includes waiting for a CPU, since one goroutine per simulated core outnumbers the host's CPUs"},
	{"aicore.new_core_us", "us", "lower", 0, "aicore.New; moves alloc_mb_per_request and cpu_ms_per_request on steady-fig7, where every request builds its cores"},
	{"aicore.replay_us_per_tile.maxpool.147", "us", "lower", 0, "memoized Plan.Run of one tile on a reused core, maxpool, 147x147 layer; moves steady-fig7 and overload-fig7-max"},
	{"aicore.replay_us_per_tile.maxpool.71", "us", "lower", 0, "as above, 71x71 layer"},
	{"aicore.replay_us_per_tile.maxpool.35", "us", "lower", 0, "as above, 35x35 layer"},
	{"aicore.replay_us_per_tile.avgpool.147", "us", "lower", 0, "as above, avgpool, 147x147 layer; moves steady-fig7, not overload-fig7-max"},
	{"aicore.replay_us_per_tile.avgpool.71", "us", "lower", 0, "as above, 71x71 layer"},
	{"aicore.replay_us_per_tile.avgpool.35", "us", "lower", 0, "as above, 35x35 layer"},
	{"aicore.host_ns_per_sim_cycle", "ns/cycle", "lower", 0, "host time of the first (scoreboard) replays per simulated cycle: the simulator's speed"},
	{"fp16.add_ns_per_kb", "ns/KB", "lower", 0, "fp16.AddSlice; moves steady-fig7 (half its mix is avgpool), predicts no change on overload-fig7-max"},
	{"fp16.max_ns_per_kb", "ns/KB", "lower", 0, "fp16.MaxSlice; moves steady-fig7 and overload-fig7-max"},
	{"ref.ms_per_request.maxpool", "ms", "lower", 0, "golden-model maxpool of a whole request, mean over the Fig. 7 layers; chaos-fig7 runs it on one tile per 35x35 request"},
	{"ref.ms_per_request.avgpool", "ms", "lower", 0, "golden-model avgpool of a whole request, mean over the Fig. 7 layers; chaos-fig7 runs it on one tile per 35x35 request"},
	{"go.gc_per_request", "count", "lower", 0, "garbage collections per correct answer; moves cpu_ms_per_request"},
	{"go.gc_pause_ms_total", "ms", "lower", 0, "stop-the-world GC pause over the window; moves cpu_ms_per_request"},
	{"go.goroutines_peak", "count", "lower", 0, "most goroutines seen; set by the one-goroutine-per-simulated-core fan-out"},
	{"trace.overhead.goodput_ratio", "ratio", "higher", 0, "traced goodput over untraced goodput"},
	{"trace.overhead.p50_ratio", "ratio", "lower", 0, "traced over untraced latency_p50_ms"},
	{"trace.spans_dropped", "count", "lower", 0, "spans evicted by the tracer's retention cap; must stay 0"},
	{"span.self_ms_per_request.serve_request", "ms", "lower", 0, "serve_request span time outside its children, per request: queueing and batch wait"},
	{"span.self_ms_per_request.serve_admit", "ms", "lower", 0, "serve_admit self time per request: admission outside compile"},
	{"span.self_ms_per_request.plan_lookup", "ms", "lower", 0, "plan_lookup self time per request"},
	{"span.self_ms_per_request.plan_compile", "ms", "lower", 0, "plan_compile self time per request, set-up included"},
	{"span.self_ms_per_request.serve_batch", "ms", "lower", 0, "serve_batch self time per request: packing and splitting"},
	{"span.self_ms_per_request.chip_run", "ms", "lower", 0, "chip_run self time per request: fan-out and assembly"},
	{"span.self_ms_per_request.tile_exec", "ms", "lower", 0, "tile_exec time per request, waiting for a CPU included"},
}

// spanSelfNames are the spans whose self time is reported per request.
var spanSelfNames = []string{"serve_request", "serve_admit", "plan_lookup", "plan_compile", "serve_batch", "chip_run", "tile_exec"}

// summary condenses a window into the request tallies every metric is
// computed from.
type summary struct {
	offered, good, wrong int
	outcomes             map[string]int // outcome or rejection reason -> count
	latencies            []float64      // ms, correct answers
}

func summarize(win *window) summary {
	s := summary{outcomes: map[string]int{}}
	for i := range win.recs {
		o := &win.recs[i]
		s.offered++
		key := o.result.String()
		if o.reason != "" {
			key += "." + o.reason
		}
		s.outcomes[key]++
		if o.wrong {
			s.wrong++
		}
		if !o.good {
			continue
		}
		s.good++
		s.latencies = append(s.latencies, ms(o.latency()))
	}
	s.latencies = sorted(s.latencies)
	return s
}

// failed counts the requests whose outcome the workload does not allow:
// wrong outputs, and anything short of a correct answer except, on a
// workload built to overload admission, a typed admission refusal.
func (s summary) failed(w *workload) int {
	n := s.wrong
	for key, c := range s.outcomes {
		switch {
		case key == serve.OutcomeCompleted.String(), strings.HasPrefix(key, serve.OutcomeDegraded.String()):
		case w.refusals && admissionRefusal(key):
		default:
			n += c
		}
	}
	return n
}

func admissionRefusal(key string) bool {
	switch key {
	case "rejected.queue_full", "rejected.shed", "rejected.evicted":
		return true
	}
	return false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndValues computes every end-to-end metric of a measured window,
// in the time of the reference host: speed is the host's speed over the
// run (see calibrate.go), so a measured duration d reads d*speed. Goodput
// is divided by speed where the host's speed sets it, on an overloaded or
// closed-loop workload, and the shares of offered requests answered where
// it sets them too, on an overloaded one; elsewhere the arrival schedule
// sets them. speed 1 gives the measured values.
func endToEndValues(w *workload, win *window, setups []float64, speed float64) map[string]float64 {
	s := summarize(win)
	good := float64(s.good)
	inLimit := 0
	for _, l := range s.latencies {
		if l*speed <= ms(w.limit) {
			inLimit++
		}
	}
	p50, _ := percentile(s.latencies, 0.50)
	p95, _ := percentile(s.latencies, 0.95)
	goodput := ratio(good, win.elapsed.Seconds())
	served := ratio(good, float64(s.offered))
	slo := ratio(float64(inLimit), float64(s.offered))
	if w.refusals || w.rate == 0 {
		goodput /= speed
	}
	if w.refusals {
		served /= speed
		slo /= speed
	}
	return map[string]float64{
		"setup_s":                median(setups) * speed,
		"goodput_rps":            goodput,
		"slo_attainment":         slo,
		"served_ratio":           served,
		"latency_p50_ms":         p50 * speed,
		"latency_p95_ms":         p95 * speed,
		"cpu_ms_per_request":     ratio(ms(win.cpu), good) * speed,
		"alloc_mb_per_request":   ratio(float64(win.alloc)/1e6, good),
		"peak_rss_mb":            peakRSSMB(),
		"sim_cycles_per_request": ratio(float64(win.counts.tileCycles), good),
	}
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) * 1024 / 1e6          // Linux reports kilobytes
}
