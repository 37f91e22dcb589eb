package main

import (
	"sort"
	"time"

	"davinci/internal/serve"
	"davinci/internal/trace"
)

// layerValues computes the per-layer metrics of a traced run. Everything
// measurable from outside without spans comes from the untraced window
// (peakG is the most goroutines seen during it);
// span-derived metrics come from the traced one, whose root span covers
// its set-up and window and which offered tracedRequests requests.
func layerValues(w *workload, plain, traced *window, peakG int, spans []trace.Span, dropped int64, tracedRequests int) map[string]float64 {
	s := summarize(plain)
	good := float64(s.good)
	offered := float64(s.offered)
	var admit, lag, wait, exec, batch []float64
	degraded := 0
	for i := range plain.recs {
		o := &plain.recs[i]
		admit = append(admit, float64(o.end-o.start)/float64(time.Microsecond))
		lag = append(lag, ms(o.start-o.due))
		if o.batch > 0 {
			batch = append(batch, float64(o.batch))
		}
		if o.result == serve.OutcomeDegraded {
			degraded++
		}
		if o.good {
			wait = append(wait, ms(o.wait))
			exec = append(exec, ms(o.exec))
		}
	}
	p := func(xs []float64, q float64) float64 {
		v, _ := percentile(sorted(xs), q)
		return v
	}
	c := plain.counts
	v := map[string]float64{
		"serve.admit_us_p50":             median(admit),
		"serve.refused_ratio.queue_full": ratio(float64(s.outcomes["rejected.queue_full"]), offered),
		"serve.refused_ratio.shed":       ratio(float64(s.outcomes["rejected.shed"]), offered),
		"serve.refused_ratio.evicted":    ratio(float64(s.outcomes["rejected.evicted"]), offered),
		"serve.refused_ratio.deadline":   ratio(float64(s.outcomes["rejected.deadline"]), offered),
		"serve.queue_wait_ms_p50":        p(wait, 0.50),
		"serve.queue_wait_ms_p95":        p(wait, 0.95),
		"serve.batch_size_mean":          mean(batch),
		"serve.exec_ms_p50":              median(exec),
		"serve.degraded_ratio":           ratio(float64(degraded), offered),
		"gen.lag_ms_p99":                 p(lag, 0.99),
		"ops.plan_misses":                float64(c.planMisses),
		"ops.plan_hits":                  float64(c.planHits),
		"chip.tiles_per_request":         ratio(float64(c.tiles), good),
		"chip.tile_attempts_per_tile":    ratio(float64(c.attempts), float64(c.finished)),
		"chip.tiles_degraded":            float64(c.tilesDegraded),
		"go.gc_per_request":              ratio(float64(plain.numGC), good),
		"go.gc_pause_ms_total":           ms(plain.gcPause),
		"go.goroutines_peak":             float64(peakG),
		"trace.spans_dropped":            float64(dropped),
	}

	e0 := endToEndValues(w, plain, nil, 1)
	e1 := endToEndValues(w, traced, nil, 1)
	v["trace.overhead.goodput_ratio"] = ratio(e1["goodput_rps"], e0["goodput_rps"])
	v["trace.overhead.p50_ratio"] = ratio(e1["latency_p50_ms"], e0["latency_p50_ms"])

	var runs, tiles []float64
	for i := range spans {
		d := float64(spans[i].EndNS - spans[i].StartNS)
		switch spans[i].Name {
		case "chip_run":
			runs = append(runs, d/1e6)
		case "tile_exec":
			tiles = append(tiles, d/1e3)
		}
	}
	v["chip.run_ms_p50"] = median(runs)
	v["chip.tile_wall_us_p50"] = median(tiles)
	self := selfTimes(spans)
	for _, name := range spanSelfNames {
		v["span.self_ms_per_request."+name] = ratio(ms(self[name]), float64(tracedRequests))
	}
	return v
}

// selfTimes sums, per span name, each span's duration minus the union of
// its children's intervals, clipped to the span.
func selfTimes(spans []trace.Span) map[string]time.Duration {
	kids := map[trace.SpanID][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.StartNS, s.EndNS})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - covered(interval{s.StartNS, s.EndNS}, kids[s.ID]))
	}
	return out
}

type interval struct{ lo, hi int64 }

// covered is the length of the union of ivs within span.
func covered(span interval, ivs []interval) int64 {
	var clipped []interval
	for _, iv := range ivs {
		iv.lo, iv.hi = max(iv.lo, span.lo), min(iv.hi, span.hi)
		if iv.lo < iv.hi {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}
