package obs

// CanonicalLabelKeys is the closed set of metric label keys this repo
// uses. Keeping the key vocabulary small and shared is what makes
// snapshots joinable across subsystems — the chip's fault counters, the
// plan cache's optimizer counters and the bench gauges all meet in one
// BENCH_<rev>.json — so new keys are added here deliberately, not minted
// ad hoc at call sites. cmd/davinci-vet enforces that every literal label
// key passed to Counter/Gauge/Histogram is in this set.
var CanonicalLabelKeys = map[string]bool{
	// cause attributes stall cycles to a scoreboard reason (aicore.StallCause).
	"cause": true,
	// class names a serving priority class ("interactive", "standard", "batch").
	"class": true,
	// experiment names the bench experiment a cell belongs to ("fig7a", "sweep", "optsweep").
	"experiment": true,
	// impl names the kernel implementation or variant measured ("im2col", "maxpool_bwd/standard/opt").
	"impl": true,
	// input identifies the workload shape ("147x147x64").
	"input": true,
	// kind classifies injected faults (faults.Kind).
	"kind": true,
	// pass names an optimizer pass ("coalesce-vec", "reschedule").
	"pass": true,
	// reason classifies a serving rejection or degradation
	// ("queue_full", "shed", "evicted", "deadline", "invalid", "closed",
	// "exec", "overload").
	"reason": true,
}

// CanonicalMetricNames is the closed set of metric names this repo
// publishes. Like the label keys, names are minted here deliberately so
// every snapshot — bench artifacts, chip telemetry, the plan cache's
// optimizer and autoscheduler counters — speaks one vocabulary.
// cmd/davinci-vet enforces that every literal name passed to
// Counter/Gauge/Histogram is in this set.
var CanonicalMetricNames = map[string]bool{
	// Plan cache (internal/ops).
	"plan_cache_hits":     true,
	"plan_cache_misses":   true,
	"plan_cache_compiled": true,
	// Static optimizer outcomes, per compiled plan (internal/ops, from opt.Result).
	"opt_rewrites":     true,
	"opt_cycles_saved": true,
	"opt_rejected":     true,
	// Autoscheduler outcomes, per compiled plan (internal/ops, from ops.AutoSchedReport).
	"sched_candidates":   true,
	"sched_pruned":       true,
	"sched_accepted":     true,
	"sched_cycles_saved": true,
	// Kernels whose planner exposes no searchable schedule axes: the
	// autoscheduler ran no search and reported sched_candidates=0 with an
	// explicit reason (ops.AutoSchedReport.NoSearch).
	"sched_nosearch": true,
	// O2 rescheduling passes skipped because the depgraph.Conflicts
	// region-pair scan exhausted its comparison budget.
	"depgraph_budget_exhausted": true,
	// Multi-core execution (internal/chip).
	"chip_tiles":                true,
	"chip_tile_cycles":          true,
	"chip_tile_instrs":          true,
	"chip_bytes_in":             true,
	"chip_bytes_out":            true,
	"chip_tile_retries":         true,
	"chip_tile_requeues":        true,
	"chip_tiles_degraded":       true,
	"chip_tile_hangs":           true,
	"chip_cores_failed":         true,
	"chip_tile_panics":          true,
	"chip_retry_backoff_cycles": true,
	// Per-tile latency distributions (internal/chip): host wall nanoseconds
	// per executed tile attempt, and attempts needed per finished tile (1 =
	// clean first try; retries push the tail right).
	"chip_tile_wall_nanos": true,
	"chip_tile_attempts":   true,
	// Fault injection (internal/faults).
	"faults_injected": true,
	// Benchmark measurements (internal/bench).
	"bench_cycles":         true,
	"bench_stall_cycles":   true,
	"sweep_stall_cycles":   true,
	"sweep_program_cycles": true,
	// Span-retention evictions (internal/trace.Tracer.Dropped), published
	// by the live exporter and davinci-serve so a capped tracer's losses
	// are visible.
	"trace_spans_dropped": true,
	// Serving-fleet request accounting (internal/serve). The conservation
	// invariant ties them together: submitted == completed + degraded +
	// rejected + cancelled once the fleet drains.
	"serve_submitted": true,
	"serve_admitted":  true,
	"serve_completed": true,
	"serve_degraded":  true,
	"serve_rejected":  true,
	"serve_cancelled": true,
	// Serving-fleet dispatch behavior (internal/serve): batches launched,
	// their size distribution, intake-queue occupancy and wait, end-to-end
	// request latency, and circuit-breaker activity.
	"serve_batches":          true,
	"serve_batch_size":       true,
	"serve_queue_depth":      true,
	"serve_queue_wait_nanos": true,
	"serve_latency_nanos":    true,
	"serve_breaker_trips":    true,
	"serve_breaker_probes":   true,
	// Load-generator summary cells (internal/serve.RunLoad via the bench
	// serveload experiment and cmd/davinci-serve). The deterministic smoke
	// cell publishes goodput/shed/lost for the trend gate; the open-loop
	// overload cells publish the offered-vs-outcome profile and latency
	// quantiles.
	"serve_goodput":            true,
	"serve_shed_requests":      true,
	"serve_lost_requests":      true,
	"serve_offered_requests":   true,
	"serve_completed_requests": true,
	"serve_degraded_requests":  true,
	"serve_rejected_requests":  true,
	"serve_cancelled_requests": true,
	"serve_p50_nanos":          true,
	"serve_p99_nanos":          true,
}

// CanonicalSpanNames is the closed set of host-side span names
// (internal/trace) this repo emits. The taxonomy covers the request path
// top to bottom; cmd/davinci-vet enforces that every literal name passed
// to StartSpan is in this set, the same way metric names are enforced.
var CanonicalSpanNames = map[string]bool{
	// One bench experiment (internal/bench, cmd/davinci-bench): parent of
	// every chip_run it performs.
	"bench_experiment": true,
	// One public chip entry call (internal/chip): kernel dispatch across
	// cores, parent of the plan lookup and every tile span.
	"chip_run": true,
	// Plan-cache consultation (internal/ops.PlanCache.Get). Attr outcome =
	// hit|miss; on miss, parents the plan_compile span. Tile spans link
	// "plan" here, covering both the hit and miss cases uniformly.
	"plan_lookup": true,
	// One plan compile (lowering + lint + opt + perf), cache-miss only.
	"plan_compile": true,
	// Static-optimizer pipeline over a sealed program (internal/opt),
	// reconstructed from the wall-clock windows opt.Result records; one
	// opt_pass child per applied rewrite pass.
	"opt_pipeline": true,
	"opt_pass":     true,
	// Autoschedule search (internal/sched.Search); one sched_candidate
	// child per frontier candidate confirmed on the cycle-accurate model.
	"sched_search":    true,
	"sched_candidate": true,
	// One tile attempt on a core (internal/chip). Attrs
	// core/n/c1/attempt/outcome; links "plan" to its
	// plan_lookup span and "retry_of" to the failed attempt it replaces;
	// carries the simulated-cycle window as its second time domain.
	"tile_exec": true,
	// Golden-model fallback after a tile exhausts its retry budget; links
	// "after" to the final failed tile_exec span.
	"tile_degrade": true,
	// One serving request end to end (internal/serve): submit to terminal
	// outcome. Attrs impl/class/outcome; links "batch" to the serve_batch
	// span that carried it.
	"serve_request": true,
	// Admission decision for one request: plan fast-path lookup, deadline
	// budget check, shed controller, queue bound. Attr outcome =
	// admitted|queue_full|shed|deadline|invalid|closed.
	"serve_admit": true,
	// One coalesced same-shape batch dispatched to a fleet chip; parent of
	// the chip_run it performs. Attrs chip/impl/size/outcome.
	"serve_batch": true,
	// One load-shedding eviction: a queued lower-priority request dropped
	// to make room for a newly admitted higher-priority one.
	"serve_shed": true,
}
