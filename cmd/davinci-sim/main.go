// Command davinci-sim runs a single pooling kernel on the simulated device
// with arbitrary parameters and prints the timing breakdown: total cycles,
// per-pipeline busy time and instruction counts — the hardware-counter
// view of §VI. With -trace it also exports the attributed schedule as
// Chrome trace-event JSON for Perfetto (https://ui.perfetto.dev), and with
// -gantt it prints an ASCII timeline plus the per-pipe cycle accounting
// (busy + attributed stalls + idle = makespan). With -opt N the plan is
// compiled through the static optimizer (internal/opt) at that level and
// the translation-validated rewrite report is printed; the result is
// still verified against the reference model. With -autosched the
// schedule search (internal/sched) picks the schedule instead of the
// hand-tuned default: the chosen ScheduleParams and the search summary
// are printed, and the oracle-predicted cycles can be compared against
// the simulated makespan on the line below.
//
// Example:
//
//	davinci-sim -op maxpool-fwd -variant im2col -h 147 -w 147 -c 64 -k 3 -s 2 -trace out.json
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/chip"
	"davinci/internal/faults"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/obs"
	"davinci/internal/ops"
	"davinci/internal/opt"
	"davinci/internal/ref"
	_ "davinci/internal/sched" // registers the autoscheduler -autosched dispatches to
	"davinci/internal/tensor"
	itrace "davinci/internal/trace"
)

func main() {
	op := flag.String("op", "maxpool-fwd", "operator: maxpool-fwd, maxpool-argmax, maxpool-bwd, avgpool-fwd, avgpool-bwd")
	variant := flag.String("variant", "im2col", "implementation variant (see -help text per op)")
	h := flag.Int("h", 35, "input height")
	w := flag.Int("w", 35, "input width")
	k := flag.Int("k", 3, "kernel size")
	s := flag.Int("s", 2, "stride")
	pad := flag.Int("pad", 0, "zero padding on every side")
	seed := flag.Int64("seed", 1, "input generator seed")
	ub := flag.Int("ub", buffer.DefaultUBSize, "Unified Buffer bytes")
	verify := flag.Bool("verify", true, "check the result against the reference model")
	trace := flag.String("trace", "", "write the attributed schedule to this file as Chrome trace-event JSON (Perfetto)")
	gantt := flag.Bool("gantt", false, "print an ASCII per-pipeline timeline and the cycle accounting")
	optLevel := flag.Int("opt", 0, "static optimizer level (0=off, 1=rewrites, 2=+rescheduling); prints the rewrite report")
	autosched := flag.Bool("autosched", false, "search the schedule space (internal/sched) instead of using the hand-tuned default; prints the chosen ScheduleParams and predicted vs simulated cycles")
	spans := flag.String("spans", "", "run on the multi-core chip with host-side span tracing and write the spans as JSONL to this file (- for stdout); supports maxpool-fwd and avgpool-fwd")
	cores := flag.Int("cores", 4, "AI cores in -spans chip mode")
	batch := flag.Int("n", 1, "batch size in -spans chip mode")
	channels := flag.Int("c", 64, "logical channels in -spans chip mode (c1 = ceil(c/16) tiles per image)")
	chaos := flag.Bool("chaos", false, "with -spans: inject seeded faults and enable the tile executor's retries, so the trace shows retry/degrade causality")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-schedule seed for -chaos")
	chaosRate := flag.Float64("chaos-rate", 0.2, "per-(tile,attempt) fault probability for -chaos")
	chaosDegrade := flag.Bool("chaos-degrade", true, "with -chaos: degrade exhausted tiles to the host golden model instead of failing the run")
	flag.Parse()

	if *spans != "" {
		if err := runChipTraced(chipOptions{
			op: *op, variant: *variant, h: *h, w: *w, k: *k, s: *s, pad: *pad,
			seed: *seed, ub: *ub, verify: *verify, level: opt.Level(*optLevel),
			autosched: *autosched, spans: *spans, trace: *trace,
			cores: *cores, batch: *batch, channels: *channels,
			chaos: *chaos, chaosSeed: *chaosSeed, chaosRate: *chaosRate, chaosDegrade: *chaosDegrade,
		}); err != nil {
			fatal(err)
		}
		return
	}

	p := isa.ConvParams{Ih: *h, Iw: *w, Kh: *k, Kw: *k, Sh: *s, Sw: *s, Pt: *pad, Pb: *pad, Pl: *pad, Pr: *pad}
	if err := p.Validate(); err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	in := tensor.New(1, 1, *h, *w, tensor.C0)
	in.FillRandom(rng, 8)
	core := aicore.New(buffer.Config{UBSize: *ub}, nil)
	if *trace != "" || *gantt {
		core.Trace = &aicore.Trace{}
	}

	st, pl, err := dispatch(core, *op, *variant, in, p, *verify, opt.Level(*optLevel), *autosched)
	if err != nil {
		fatal(err)
	}
	oh, ow := p.OutDims()
	fmt.Printf("op=%s variant=%s input=(%d,%d,%d) kernel=(%d,%d) stride=(%d,%d) pad=%d output=(%d,%d)\n",
		*op, *variant, *h, *w, tensor.C0, *k, *k, *s, *s, *pad, oh, ow)
	fmt.Printf("cycles: %d\n", st.Cycles)
	if r := pl.Perf; r != nil {
		fmt.Printf("static bounds: %d (pipe occupancy) <= cycles <= %d (critical path)\n", r.BusyBound, r.CritPath)
	}
	if r := pl.Opt; r != nil {
		fmt.Printf("optimizer: %s\n", r.Summary())
		for _, rw := range r.Rewrites {
			fmt.Printf("  %s\n", rw)
		}
	}
	if a := pl.Auto; a != nil {
		fmt.Printf("autoschedule: %s\n", a.Summary())
		fmt.Printf("  schedule: %s\n", pl.Sched)
		fmt.Printf("  predicted %d cycles (oracle), simulated %d cycles\n", a.Cycles, st.Cycles)
	}
	fmt.Printf("instructions: %d\n", st.Instrs)
	fmt.Printf("global-memory traffic: %d bytes in, %d bytes out\n", st.BytesIn, st.BytesOut)
	for pipe := isa.PipeScalar; pipe < isa.NumPipes; pipe++ {
		if st.PipeInstrs[pipe] == 0 {
			continue
		}
		fmt.Printf("  %-6s %8d instrs  %10d busy cycles (%.1f%% of makespan)\n",
			pipe, st.PipeInstrs[pipe], st.PipeBusy[pipe],
			100*float64(st.PipeBusy[pipe])/float64(st.Cycles))
	}
	if core.Trace != nil {
		acct, err := obs.Account(core.Trace)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		acct.Format(os.Stdout)
		if *gantt {
			fmt.Println("\nschedule timeline:")
			core.Trace.Gantt(os.Stdout, 100)
		}
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				fatal(err)
			}
			if err := obs.WriteChromeTrace(f, core.Trace); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("\nwrote Chrome trace (%d events' worth of schedule) to %s — open in https://ui.perfetto.dev\n",
				len(core.Trace.Entries), *trace)
		}
	}
}

// chipOptions parameterizes the -spans chip-mode run.
type chipOptions struct {
	op, variant            string
	h, w, k, s, pad        int
	seed                   int64
	ub                     int
	verify                 bool
	level                  opt.Level
	autosched              bool
	spans, trace           string
	cores, batch, channels int
	chaos                  bool
	chaosSeed              int64
	chaosRate              float64
	chaosDegrade           bool
}

// runChipTraced is the -spans path: the kernel runs on the multi-core
// chip with span tracing threaded through compile, (auto)scheduling and
// every tile attempt; the spans are exported as JSONL and, with -trace,
// merged with tile (0,0)'s cycle-accurate pipe schedule into one
// Perfetto file.
func runChipTraced(o chipOptions) error {
	p := isa.ConvParams{Ih: o.h, Iw: o.w, Kh: o.k, Kw: o.k, Sh: o.s, Sw: o.s, Pt: o.pad, Pb: o.pad, Pl: o.pad, Pr: o.pad}
	if err := p.Validate(); err != nil {
		return err
	}
	tracer := itrace.New()
	cfg := chip.Config{
		Cores:        o.cores,
		Buffers:      buffer.Config{UBSize: o.ub},
		Opt:          o.level,
		AutoSchedule: o.autosched,
		Trace:        tracer.Root(),
		CaptureTrace: o.trace != "",
	}
	if o.chaos {
		cfg.Resilience = chip.Resilience{
			Enabled: true,
			Injector: faults.New(faults.Config{
				Seed: o.chaosSeed,
				Rate: o.chaosRate,
				// Transient faults and bitflips fail deterministically per
				// attempt; the hang kinds would spend wall-clock watchdog
				// time for the same causal shape.
				Kinds: []faults.Kind{faults.KindTransient, faults.KindBitFlip},
				// Let every attempt fault, so a high -chaos-rate can
				// exhaust the retry budget and the trace shows degrade
				// spans (the default caps faults to the first attempt).
				MaxPerTile: 3,
			}, nil),
			Degrade:  o.chaosDegrade,
			Watchdog: 10 * time.Second,
		}
	}
	dev := chip.New(cfg)

	rng := rand.New(rand.NewSource(o.seed))
	c1 := tensor.C1Of(o.channels)
	in := tensor.New(o.batch, c1, o.h, o.w, tensor.C0)
	in.FillRandom(rng, 8)

	var (
		out    *tensor.Tensor
		st     *chip.Stats
		err    error
		refFor func(tile *tensor.Tensor) *tensor.Tensor
	)
	switch o.op {
	case "maxpool-fwd":
		out, st, err = dev.MaxPoolForward(o.variant, in, p)
		refFor = func(tile *tensor.Tensor) *tensor.Tensor { return ref.MaxPoolForward(tile, p) }
	case "avgpool-fwd":
		out, st, err = dev.AvgPoolForward(o.variant, in, p)
		refFor = func(tile *tensor.Tensor) *tensor.Tensor { return ref.AvgPoolForward(tile, p) }
	default:
		return fmt.Errorf("-spans chip mode supports maxpool-fwd and avgpool-fwd, not %q", o.op)
	}
	if err != nil {
		return err
	}
	if o.verify {
		for ni := 0; ni < o.batch; ni++ {
			for ci := 0; ci < c1; ci++ {
				want := refFor(tensor.SliceC1(in, ni, ci))
				got := tensor.SliceC1(out, ni, ci)
				if d := tensor.MaxAbsDiff(got, want); d != 0 {
					return fmt.Errorf("tile (%d,%d) diverges from reference (max diff %v)", ni, ci, d)
				}
			}
		}
		fmt.Printf("verified: all %d tiles match the reference model\n", o.batch*c1)
	}

	oh, ow := p.OutDims()
	fmt.Printf("op=%s variant=%s input=(%d,%d,%d,%d,%d) kernel=(%d,%d) stride=(%d,%d) pad=%d output=(%d,%d) cores=%d\n",
		o.op, o.variant, o.batch, c1, o.h, o.w, tensor.C0, o.k, o.k, o.s, o.s, o.pad, oh, ow, o.cores)
	fmt.Printf("chip cycles: %d over %d tiles\n", st.Cycles, st.Tiles)
	if len(st.Degraded) > 0 {
		fmt.Printf("degraded tiles (host golden model): %d\n", len(st.Degraded))
	}
	spans := tracer.Finished()
	if n := tracer.Active(); n != 0 {
		return fmt.Errorf("trace leak: %d span(s) still active after the run", n)
	}
	byName := map[string]int{}
	for _, sp := range spans {
		byName[sp.Name]++
	}
	fmt.Printf("spans: %d total", len(spans))
	for _, name := range []string{"chip_run", "plan_lookup", "plan_compile", "opt_pipeline", "opt_pass", "sched_search", "sched_candidate", "tile_exec", "tile_degrade"} {
		if byName[name] > 0 {
			fmt.Printf("  %s=%d", name, byName[name])
		}
	}
	fmt.Println()

	if err := writeSpans(o.spans, spans); err != nil {
		return err
	}
	if o.spans != "-" {
		fmt.Printf("wrote %d spans to %s\n", len(spans), o.spans)
	}
	if o.trace != "" {
		f, err := os.Create(o.trace)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTraceWithSpans(f, st.TileTrace, spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote merged Chrome trace (tile (0,0) pipe schedule + %d host spans) to %s — open in https://ui.perfetto.dev\n",
			len(spans), o.trace)
	}
	return nil
}

// writeSpans dumps spans as deterministic JSONL.
func writeSpans(path string, spans []itrace.Span) error {
	if path == "-" {
		return itrace.WriteJSONL(os.Stdout, spans)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := itrace.WriteJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dispatch compiles the requested kernel once through the Plan API,
// replays it on the core, and verifies the outputs against the
// reference model.
func dispatch(core *aicore.Core, op, variant string, in *tensor.Tensor, p isa.ConvParams, verify bool, level opt.Level, autosched bool) (*aicore.Stats, *ops.Plan, error) {
	check := func(got, want *tensor.Tensor, what string) error {
		if !verify {
			return nil
		}
		if d := tensor.MaxAbsDiff(got, want); d != 0 {
			return fmt.Errorf("%s diverges from reference (max diff %v)", what, d)
		}
		fmt.Printf("verified: %s matches the reference model\n", what)
		return nil
	}
	spec := ops.SpecFor(core)
	spec.Opt = level
	spec.AutoSchedule = autosched
	var (
		pl     *ops.Plan
		err    error
		inputs []*tensor.Tensor
		refs   []*tensor.Tensor
		whats  []string
	)
	switch op {
	case "maxpool-fwd":
		if pl, err = ops.PlanMaxPoolForward(variant, spec, p); err != nil {
			return nil, nil, err
		}
		inputs = []*tensor.Tensor{in}
		refs, whats = []*tensor.Tensor{ref.MaxPoolForward(in, p)}, []string{"output"}
	case "maxpool-argmax":
		if pl, err = ops.PlanMaxPoolForwardArgmax(variant, spec, p); err != nil {
			return nil, nil, err
		}
		inputs = []*tensor.Tensor{in}
		refs = []*tensor.Tensor{ref.MaxPoolForward(in, p), ref.ArgmaxMask(in, p)}
		whats = []string{"output", "argmax mask"}
	case "maxpool-bwd":
		if pl, err = ops.PlanMaxPoolBackward(variant, spec, p); err != nil {
			return nil, nil, err
		}
		mask := ref.ArgmaxMask(in, p)
		grad := intGradient(p)
		inputs = []*tensor.Tensor{mask, grad}
		refs = []*tensor.Tensor{ref.MaxPoolBackward(mask, grad, p, p.Ih, p.Iw)}
		whats = []string{"gradient"}
	case "avgpool-fwd":
		if pl, err = ops.PlanAvgPoolForward(variant, spec, p); err != nil {
			return nil, nil, err
		}
		inputs = []*tensor.Tensor{in}
		refs, whats = []*tensor.Tensor{ref.AvgPoolForward(in, p)}, []string{"output"}
	case "avgpool-bwd":
		useCol2im := variant == "col2im"
		if !useCol2im && variant != "standard" {
			return nil, nil, fmt.Errorf("avgpool-bwd variants: standard, col2im")
		}
		if pl, err = ops.PlanAvgPoolBackward(spec, p, useCol2im); err != nil {
			return nil, nil, err
		}
		grad := intGradient(p)
		inputs = []*tensor.Tensor{grad}
		refs = []*tensor.Tensor{ref.AvgPoolBackward(grad, p, p.Ih, p.Iw)}
		whats = []string{"gradient"}
	default:
		return nil, nil, fmt.Errorf("unknown op %q", op)
	}
	outs, st, err := pl.Run(core, inputs...)
	if err != nil {
		return nil, nil, err
	}
	for i, want := range refs {
		if err := check(outs[i], want, whats[i]); err != nil {
			return nil, nil, err
		}
	}
	return st, pl, nil
}

// intGradient builds a small-integer-valued gradient tensor. Integer
// values keep Float16 accumulation exact, so the backward kernels verify
// bit-identically against the reference regardless of band boundaries
// (Float16 addition is not associative; schedules with different band
// splits legitimately differ by ULPs on arbitrary values, on real hardware
// as much as here).
func intGradient(p isa.ConvParams) *tensor.Tensor {
	oh, ow := p.OutDims()
	grad := tensor.New(1, 1, oh, ow, tensor.C0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < grad.Len(); i++ {
		grad.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(8))))
	}
	return grad
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "davinci-sim: %v\n", err)
	os.Exit(1)
}
