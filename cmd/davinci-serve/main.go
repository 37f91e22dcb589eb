// Command davinci-serve drives the inference serving layer (internal/serve)
// with an open-loop load generator and reports the overload profile: for
// each offered rate, how many requests completed, degraded, were shed,
// rejected or cancelled, plus goodput and latency quantiles.
//
// Usage:
//
//	davinci-serve [flags]
//
// Each cell of -rates builds a fresh fleet and offers -requests requests
// at that rate (0 = closed burst: everything at once). The conservation
// invariant — offered == completed + degraded + rejected + cancelled,
// nothing lost — is asserted on every cell and violations exit 1; it is
// the serving layer's contract, not an optional check.
//
// -smoke is the CI gate mode: a single deterministic closed burst with
// shedding and chaos forced off, asserting that every request completes
// bit-identically (the fleet guarantees outputs match the golden model)
// and that the accounting reconciles across tickets, server stats and
// published counters.
//
// -chaos threads a seeded fault injector through every chip; with
// -degrade-failure the fleet falls back to the host golden model for
// failing batches, so availability degrades in latency, never in
// correctness.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"davinci/internal/buffer"
	"davinci/internal/chip"
	"davinci/internal/faults"
	"davinci/internal/obs"
	"davinci/internal/serve"
	"davinci/internal/trace"
)

func main() {
	chips := flag.Int("chips", 2, "fleet size (simulated chips)")
	cores := flag.Int("cores", chip.DefaultCores, "AI cores per chip")
	ub := flag.Int("ub", buffer.DefaultUBSize, "Unified Buffer bytes per core")
	l1 := flag.Int("l1", buffer.DefaultL1Size, "L1 buffer bytes per core")
	queue := flag.Int("queue", 16, "intake queue bound (admission fails or evicts beyond it)")
	maxBatch := flag.Int("max-batch", 8, "max same-shape requests coalesced into one chip batch")
	slo := flag.Duration("slo", 2*time.Millisecond, "latency SLO feeding the shedding controller (0 disables shedding)")
	cps := flag.Float64("cps", 1e8, "simulated cycles per second for deadline and SLO math")
	degradeOverload := flag.Bool("degrade-overload", false, "serve shed requests from the host golden model instead of rejecting")
	degradeFailure := flag.Bool("degrade-failure", true, "serve failed batches from the host golden model instead of rejecting")
	breakerLimit := flag.Int("breaker-limit", 3, "consecutive batch failures that open a chip's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 50*time.Millisecond, "open-breaker cooldown before a half-open probe")

	requests := flag.Int("requests", 64, "requests offered per rate cell")
	rates := flag.String("rates", "0,250,1000,4000", "comma-separated offered rates in requests/second (0 = closed burst)")
	seed := flag.Int64("seed", 1, "load generator seed (shapes, classes, payloads)")
	kernel := flag.String("kernel", "", "kernel for every request: maxpool, avgpool, or empty for an alternating mix")
	variant := flag.String("variant", "", "implementation variant (default im2col)")
	deadline := flag.Duration("deadline", 0, "per-request deadline (0 = none)")
	smoke := flag.Bool("smoke", false, "deterministic CI gate: one closed burst, shedding and chaos off, every request must complete")

	chaos := flag.Bool("chaos", false, "inject seeded faults into every chip (the chaos-serving drill)")
	chaosSeed := flag.Int64("chaos-seed", 1234, "fault-schedule seed")
	chaosRate := flag.Float64("chaos-rate", 0.3, "per-(tile,attempt) fault probability")
	chaosKinds := flag.String("chaos-kinds", "transient,bitflip,droppedflag,stuckpipe", "comma-separated fault kinds")
	chaosAttempts := flag.Int("chaos-attempts", 2, "chip-level attempts per tile before the failure escalates to the serving layer")
	chaosMaxPerTile := flag.Int("chaos-maxpertile", 3, "faults charged per tile before its schedule runs clean")

	metrics := flag.String("metrics", "", "write a JSON metrics snapshot to this file; - for stdout")
	spans := flag.String("spans", "", "write the run's trace spans as JSONL to this file; - for stdout")
	maxSpans := flag.Int("max-spans", 65536, "bound span retention (oldest evicted beyond it; 0 = unbounded)")
	serveAddr := flag.String("serve", "", "serve live telemetry (Prometheus /metrics, /debug/spans) on this address until interrupted")
	flag.Parse()

	reg := obs.NewRegistry()
	var tracer *trace.Tracer
	var tc trace.Ctx
	if *spans != "" || *serveAddr != "" {
		tracer = trace.New()
		tracer.SetMaxSpans(*maxSpans)
		tc = tracer.Root()
	}
	if *serveAddr != "" {
		exporter := &obs.Exporter{Registry: reg, Tracer: tracer}
		srv := &http.Server{Addr: *serveAddr, Handler: exporter.Handler()}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "davinci-serve: -serve: %v\n", err)
				os.Exit(1)
			}
		}()
		fmt.Fprintf(os.Stderr, "davinci-serve: serving telemetry on http://%s/metrics and /debug/spans\n", *serveAddr)
	}

	cfg := serve.Config{
		Chips:             *chips,
		Cores:             *cores,
		Buffers:           buffer.Config{UBSize: *ub, L1Size: *l1},
		QueueLimit:        *queue,
		MaxBatch:          *maxBatch,
		SLO:               *slo,
		CyclesPerSecond:   *cps,
		DegradeOnOverload: *degradeOverload,
		DegradeOnFailure:  *degradeFailure,
		BreakerFailLimit:  *breakerLimit,
		BreakerCooldown:   *breakerCooldown,
		Metrics:           reg,
		Trace:             tc,
	}
	if *chaos && !*smoke {
		kinds, err := faults.ParseKinds(*chaosKinds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "davinci-serve: -chaos-kinds: %v\n", err)
			os.Exit(1)
		}
		cfg.Resilience = chip.Resilience{
			Enabled: true,
			Injector: faults.New(faults.Config{
				Seed:       *chaosSeed,
				Rate:       *chaosRate,
				Kinds:      kinds,
				MaxPerTile: *chaosMaxPerTile,
			}, reg),
			MaxAttempts: *chaosAttempts,
		}
	}

	var cells []float64
	if *smoke {
		// The smoke gate is one deterministic closed burst: ample queue, no
		// shedding, no deadlines, no faults — every request must complete.
		cells = []float64{0}
		cfg.QueueLimit = *requests
		cfg.SLO = 0
		*deadline = 0
		if *chaos {
			fmt.Fprintln(os.Stderr, "davinci-serve: -smoke forces chaos off (the gate must be deterministic)")
		}
	} else {
		for _, f := range strings.Split(*rates, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			r, err := strconv.ParseFloat(f, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "davinci-serve: -rates: %v\n", err)
				os.Exit(1)
			}
			cells = append(cells, r)
		}
	}
	if len(cells) == 0 {
		fmt.Fprintln(os.Stderr, "davinci-serve: no rate cells to run")
		os.Exit(1)
	}

	fmt.Printf("%-10s  %8s  %9s  %8s  %8s  %9s  %11s  %9s  %9s  %5s\n",
		"cell", "offered", "completed", "degraded", "rejected", "cancelled", "goodput rps", "p50 us", "p99 us", "batch")
	failed := false
	for _, rate := range cells {
		cell := "burst"
		if rate > 0 {
			cell = fmt.Sprintf("rate_%g", rate)
		}
		if *smoke {
			cell = "smoke"
		}
		s := serve.New(cfg)
		rep := serve.RunLoad(s, serve.LoadOptions{
			Requests: *requests,
			Rate:     rate,
			Seed:     *seed,
			Kernel:   *kernel,
			Variant:  *variant,
			Deadline: *deadline,
		})
		st := s.Stats()
		s.Close()
		rep.Publish(reg, cell, *smoke)
		fmt.Printf("%-10s  %8d  %9d  %8d  %8d  %9d  %11.0f  %9.0f  %9.0f  %5d\n",
			cell, rep.Offered, rep.Completed, rep.Degraded, rep.Rejected, rep.Cancelled,
			rep.GoodputRPS, float64(rep.P50NS)/1e3, float64(rep.P99NS)/1e3, rep.MaxBatch)

		// Conservation is the contract: assert it on every cell, three ways.
		if rep.Lost != 0 {
			fmt.Fprintf(os.Stderr, "davinci-serve: %s: CONSERVATION VIOLATED: %d request(s) lost\n", cell, rep.Lost)
			failed = true
		}
		if st.Lost() != 0 {
			fmt.Fprintf(os.Stderr, "davinci-serve: %s: server accounting leaks: %+v\n", cell, st)
			failed = true
		}
		if st.Completed != rep.Completed || st.Degraded != rep.Degraded ||
			st.Rejected != rep.Rejected || st.Cancelled != rep.Cancelled {
			fmt.Fprintf(os.Stderr, "davinci-serve: %s: server stats %+v disagree with ticket tallies %d/%d/%d/%d\n",
				cell, st, rep.Completed, rep.Degraded, rep.Rejected, rep.Cancelled)
			failed = true
		}
		if st.QueueHighWater > cfg.QueueLimit {
			fmt.Fprintf(os.Stderr, "davinci-serve: %s: queue high-water %d exceeds bound %d\n", cell, st.QueueHighWater, cfg.QueueLimit)
			failed = true
		}
		if *smoke && rep.Completed != rep.Offered {
			fmt.Fprintf(os.Stderr, "davinci-serve: smoke: %d of %d requests did not complete\n", rep.Offered-rep.Completed, rep.Offered)
			failed = true
		}
		if !*smoke && rep.Completed+rep.Degraded == 0 {
			fmt.Fprintf(os.Stderr, "davinci-serve: %s: goodput zero — nothing completed or degraded\n", cell)
			failed = true
		}
		if st.BreakerTrips > 0 || st.BreakerProbes > 0 {
			fmt.Fprintf(os.Stderr, "davinci-serve: %s: breaker trips %d, half-open probes %d\n", cell, st.BreakerTrips, st.BreakerProbes)
		}
		if tracer != nil && tracer.Active() != 0 {
			fmt.Fprintf(os.Stderr, "davinci-serve: %s: span leak: %d active after drain\n", cell, tracer.Active())
			failed = true
		}
	}

	if *metrics != "" {
		if err := writeMetrics(*metrics, reg); err != nil {
			fmt.Fprintf(os.Stderr, "davinci-serve: %v\n", err)
			os.Exit(1)
		}
	}
	if *spans != "" {
		if err := writeSpans(*spans, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "davinci-serve: %v\n", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
	if *smoke {
		fmt.Println("smoke: conservation holds, all requests completed")
	}
	if *serveAddr != "" {
		fmt.Fprintf(os.Stderr, "davinci-serve: load done; still serving on http://%s (interrupt to exit)\n", *serveAddr)
		select {}
	}
}

func writeMetrics(path string, reg *obs.Registry) error {
	s := reg.Snapshot()
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
