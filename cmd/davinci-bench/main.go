// Command davinci-bench regenerates the tables and figures of the paper's
// evaluation (§VI) on the simulated device and prints them as text tables.
//
// Usage:
//
//	davinci-bench [flags] [experiment ...]
//
// Experiments: table1, fig7a, fig7b, fig7c, fig8a, fig8b, fig8c, avgpool,
// perf, sweep, optsweep, autosched, serveload, all
// (default: all). "serveload" drives the internal/serve fleet with an
// open-loop load generator over the Table I shape mix and reports the
// per-rate outcome profile (the deterministic smoke cell feeds the
// serve_goodput / serve_lost_requests trend gates).
// "sweep" runs every built-in kernel on every Table I layer on a traced
// core, checking the cycle-accounting identity per program; "optsweep"
// compiles the same programs baseline vs the static optimizer
// (internal/opt) and fails if any translation-validated program got
// slower — the CI opt regression gate. "autosched" compiles the same
// programs with the schedule search (internal/sched) and fails if a
// searched schedule regresses on any program — the autoscheduler
// regression gate. -opt N compiles every other experiment's plans at
// that optimizer level. With -metrics FILE, every measured cell plus the
// chip, plan-cache, opt_rewrites and sched_* counters are dumped as a
// JSON snapshot (the CI BENCH_<rev>.json artifact).
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"davinci/internal/bench"
	"davinci/internal/buffer"
	"davinci/internal/chip"
	"davinci/internal/faults"
	"davinci/internal/obs"
	"davinci/internal/opt"
	"davinci/internal/trace"
)

func main() {
	// "trend" is a subcommand with its own flag set: it compares metric
	// snapshots instead of running experiments.
	if len(os.Args) > 1 && os.Args[1] == "trend" {
		os.Exit(trendMain(os.Args[2:]))
	}
	cores := flag.Int("cores", chip.DefaultCores, "AI cores on the simulated device")
	ub := flag.Int("ub", buffer.DefaultUBSize, "Unified Buffer bytes per core")
	l1 := flag.Int("l1", buffer.DefaultL1Size, "L1 buffer bytes per core")
	seed := flag.Int64("seed", 1, "workload generator seed")
	reps := flag.Int("reps", 1, "repetitions per measurement (verifies determinism)")
	serialize := flag.Bool("serialize", false, "disable intra-core pipeline overlap (ablation)")
	optLevel := flag.Int("opt", 0, "static optimizer level for compiled plans (0=off, 1=rewrites, 2=+rescheduling)")
	csv := flag.Bool("csv", false, "emit comma-separated values instead of aligned tables")
	metrics := flag.String("metrics", "", "write a JSON metrics snapshot (cells, chip and plan-cache counters) to this file; - for stdout")
	chaos := flag.Bool("chaos", false, "inject seeded faults and run every experiment with the tile executor's retries enabled")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-schedule seed (same seed = same faults, any goroutine schedule)")
	chaosRate := flag.Float64("chaos-rate", 0.05, "per-(tile,attempt) fault probability")
	chaosKinds := flag.String("chaos-kinds", "transient,bitflip,droppedflag,stuckpipe", "comma-separated fault kinds to draw from")
	chaosAttempts := flag.Int("chaos-attempts", 3, "attempts per tile before giving up (retry on a fresh core, requeue elsewhere)")
	chaosDegrade := flag.Bool("chaos-degrade", false, "fall back to the host golden model for tiles that exhaust their retries")
	spans := flag.String("spans", "", "write the run's trace spans as JSONL to this file; - for stdout")
	serve := flag.String("serve", "", "serve live telemetry (Prometheus /metrics, /debug/spans) on this address until the experiments finish, then keep serving until interrupted")
	flag.Parse()

	opts := bench.Options{
		Chip: chip.Config{
			Cores:     *cores,
			Buffers:   buffer.Config{UBSize: *ub, L1Size: *l1},
			Serialize: *serialize,
			Opt:       opt.Level(*optLevel),
		},
		Seed: *seed,
		Reps: *reps,
	}
	if *metrics != "" || *chaos || *serve != "" {
		opts.Metrics = obs.NewRegistry()
	}
	var tracer *trace.Tracer
	if *spans != "" || *serve != "" {
		tracer = trace.New()
		opts.Trace = tracer.Root()
	}
	if *serve != "" {
		exporter := &obs.Exporter{Registry: opts.Metrics, Tracer: tracer}
		srv := &http.Server{Addr: *serve, Handler: exporter.Handler()}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "davinci-bench: -serve: %v\n", err)
				os.Exit(1)
			}
		}()
		fmt.Fprintf(os.Stderr, "davinci-bench: serving telemetry on http://%s/metrics and /debug/spans\n", *serve)
	}
	if *chaos {
		kinds, err := faults.ParseKinds(*chaosKinds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "davinci-bench: -chaos-kinds: %v\n", err)
			os.Exit(1)
		}
		opts.Chip.Resilience = chip.Resilience{
			Enabled: true,
			Injector: faults.New(faults.Config{
				Seed:  *chaosSeed,
				Rate:  *chaosRate,
				Kinds: kinds,
			}, opts.Metrics),
			MaxAttempts: *chaosAttempts,
			Degrade:     *chaosDegrade,
		}
	}

	experiments := flag.Args()
	if len(experiments) == 0 {
		experiments = []string{"all"}
	}
	for _, exp := range experiments {
		if err := runTraced(exp, opts, *csv); err != nil {
			fmt.Fprintf(os.Stderr, "davinci-bench: %s: %v\n", exp, err)
			os.Exit(1)
		}
	}
	if *chaos {
		printChaosSummary(os.Stdout, opts.Metrics.Snapshot())
	}
	if *metrics != "" {
		if err := writeMetrics(*metrics, opts.Metrics.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "davinci-bench: %v\n", err)
			os.Exit(1)
		}
	}
	if *spans != "" {
		if err := writeSpans(*spans, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "davinci-bench: %v\n", err)
			os.Exit(1)
		}
	}
	if *serve != "" {
		fmt.Fprintf(os.Stderr, "davinci-bench: experiments done; still serving on http://%s (interrupt to exit)\n", *serve)
		select {}
	}
}

// runTraced wraps one experiment in a bench_experiment span, so every
// chip_run (and below it every compile and tile) the experiment causes
// nests under one root per experiment.
func runTraced(exp string, opts bench.Options, csv bool) error {
	es := opts.Trace.StartSpan("bench_experiment", "experiment", exp)
	if es != nil {
		opts.Trace = es.Ctx()
	}
	err := run(exp, opts, csv)
	if es != nil {
		if err != nil {
			es.SetAttr("outcome", "error")
		} else {
			es.SetAttr("outcome", "ok")
		}
		es.End()
	}
	return err
}

// writeSpans dumps the tracer's finished spans as deterministic JSONL.
func writeSpans(path string, tracer *trace.Tracer) error {
	if path == "-" {
		return trace.WriteJSONL(os.Stdout, tracer.Finished())
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(f, tracer.Finished()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// trendMain is the "davinci-bench trend" subcommand: the bench-trend
// regression gate over -metrics snapshots.
func trendMain(args []string) int {
	fs := flag.NewFlagSet("trend", flag.ExitOnError)
	dir := fs.String("dir", "", "directory of BENCH_*.json snapshots, compared consecutively oldest to newest (by embedded taken_unix_nanos when all carry one, else file modification time)")
	baseline := fs.String("baseline", "", "baseline snapshot prepended before -dir files and positional files")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: davinci-bench trend [-baseline FILE] [-dir DIR] [snapshot.json ...]")
		fmt.Fprintln(os.Stderr, "compares consecutive snapshot pairs under the default gates; exits 1 on any regression")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	var paths []string
	if *baseline != "" {
		paths = append(paths, *baseline)
	}
	if *dir != "" {
		fromDir, err := bench.TrendDir(*dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "davinci-bench: trend: %v\n", err)
			return 1
		}
		paths = append(paths, fromDir...)
	}
	paths = append(paths, fs.Args()...)
	reports, err := bench.TrendFiles(paths, bench.DefaultTrendGates())
	if err != nil {
		fmt.Fprintf(os.Stderr, "davinci-bench: trend: %v\n", err)
		return 1
	}
	failed := false
	for _, r := range reports {
		r.Format(os.Stdout)
		if r.Failed() {
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "davinci-bench: trend: regression detected")
		return 1
	}
	fmt.Printf("trend: %d comparison(s), no regressions\n", len(reports))
	return 0
}

// printChaosSummary reports what the fault injector did and how the
// tile executor absorbed it, from the run's shared metrics registry.
func printChaosSummary(w *os.File, s *obs.Snapshot) {
	fmt.Fprintln(w, "chaos summary")
	for _, k := range faults.AllKinds() {
		if v, ok := s.CounterValue("faults_injected", "kind", k.String()); ok && v > 0 {
			fmt.Fprintf(w, "  faults injected (%s): %d\n", k, v)
		}
	}
	for _, c := range []struct{ name, what string }{
		{"chip_tile_retries", "tile retries"},
		{"chip_tile_requeues", "tile requeues onto other cores"},
		{"chip_tile_hangs", "tile hangs (stuck pipes, starved wait_flags)"},
		{"chip_cores_failed", "cores excluded after repeated failures"},
		{"chip_tile_panics", "worker panics recovered"},
		{"chip_tiles_degraded", "tiles degraded to the host golden model"},
		{"chip_retry_backoff_cycles", "simulated backoff cycles charged"},
	} {
		if v, ok := s.CounterValue(c.name); ok && v > 0 {
			fmt.Fprintf(w, "  %s: %d\n", c.what, v)
		}
	}
	fmt.Fprintln(w)
}

func writeMetrics(path string, s *obs.Snapshot) error {
	// Stamp the capture time so "trend -dir" can order artifacts by when
	// they were taken rather than by file modtime, which CI downloads and
	// checkouts rewrite.
	s.TakenUnixNanos = time.Now().UnixNano()
	if path == "-" {
		return s.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(exp string, opts bench.Options, csv bool) error {
	emit := func(t *bench.Table, err error) error {
		if err != nil {
			return err
		}
		if csv {
			t.FormatCSV(os.Stdout)
		} else {
			t.Format(os.Stdout)
		}
		return nil
	}
	switch exp {
	case "table1":
		return emit(bench.Table1(), nil)
	case "fig7a":
		return emit(bench.Fig7a(opts))
	case "fig7b":
		return emit(bench.Fig7b(opts))
	case "fig7c":
		return emit(bench.Fig7c(opts))
	case "fig8a":
		return emit(bench.Fig8(1, opts))
	case "fig8b":
		return emit(bench.Fig8(2, opts))
	case "fig8c":
		return emit(bench.Fig8(3, opts))
	case "avgpool":
		return emit(bench.AvgPool(opts))
	case "perf":
		return emit(bench.PerfTable(opts))
	case "sweep":
		return emit(bench.TableISweep(opts))
	case "optsweep":
		return emit(bench.OptSweep(opts))
	case "autosched":
		return emit(bench.AutoschedSweep(opts))
	case "serveload":
		return emit(bench.ServeLoad(opts))
	case "all":
		tables, err := bench.All(opts)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if csv {
				t.FormatCSV(os.Stdout)
			} else {
				t.Format(os.Stdout)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment (want table1, fig7a..c, fig8a..c, avgpool, perf, sweep, optsweep, autosched, serveload, all)")
	}
}
