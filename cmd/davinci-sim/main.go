// Command davinci-sim runs one catalogue kernel (-kernel, see
// internal/ops) on the simulated device with arbitrary parameters and
// prints the timing breakdown: total cycles,
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
// the simulated makespan on the line below. Inputs are small random
// integers, so every kernel verifies bit for bit against its golden
// model.
//
// Example:
//
//	davinci-sim -kernel maxpool_fwd/im2col -h 147 -w 147 -k 3 -s 2 -trace out.json
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/chip"
	"davinci/internal/faults"
	"davinci/internal/isa"
	"davinci/internal/kernelcases"
	"davinci/internal/obs"
	"davinci/internal/ops"
	"davinci/internal/opt"
	_ "davinci/internal/sched" // registers the autoscheduler -autosched dispatches to
	"davinci/internal/tensor"
	itrace "davinci/internal/trace"
)

func main() {
	kernel := flag.String("kernel", "maxpool_fwd/im2col", "catalogue kernel: maxpool_fwd/{standard,im2col,expansion,xysplit}, maxpool_fwd_argmax/{standard,im2col}, maxpool_bwd/{standard,col2im}, avgpool_fwd/{standard,im2col,cube}, avgpool_bwd/{standard,col2im}, conv2d, conv2d_bwd_data, conv2d_bwd_weights")
	h := flag.Int("h", 35, "input height")
	w := flag.Int("w", 35, "input width")
	ksize := flag.Int("k", 3, "pooling window (convolution kernel) size")
	s := flag.Int("s", 2, "stride")
	pad := flag.Int("pad", 0, "zero padding on every side")
	seed := flag.Int64("seed", 1, "input generator seed")
	ub := flag.Int("ub", buffer.DefaultUBSize, "Unified Buffer bytes")
	verify := flag.Bool("verify", true, "check the result against the reference model")
	trace := flag.String("trace", "", "write the attributed schedule to this file as Chrome trace-event JSON (Perfetto)")
	gantt := flag.Bool("gantt", false, "print an ASCII per-pipeline timeline and the cycle accounting")
	optLevel := flag.Int("opt", 0, "static optimizer level (0=off, 1=rewrites, 2=+rescheduling); prints the rewrite report")
	autosched := flag.Bool("autosched", false, "search the schedule space (internal/sched) instead of using the hand-tuned default; prints the chosen ScheduleParams and predicted vs simulated cycles")
	spans := flag.String("spans", "", "run on the multi-core chip with host-side span tracing and write the spans as JSONL to this file (- for stdout)")
	cores := flag.Int("cores", 4, "AI cores in -spans chip mode")
	batch := flag.Int("n", 1, "batch size in -spans chip mode")
	channels := flag.Int("c", 64, "logical channels in -spans chip mode (c1 = ceil(c/16) tiles per image of a pooling kernel)")
	chaos := flag.Bool("chaos", false, "with -spans: inject seeded faults and enable the tile executor's retries, so the trace shows retry/degrade causality")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-schedule seed for -chaos")
	chaosRate := flag.Float64("chaos-rate", 0.2, "per-(tile,attempt) fault probability for -chaos")
	chaosDegrade := flag.Bool("chaos-degrade", true, "with -chaos: degrade exhausted tiles to the host golden model instead of failing the run")
	flag.Parse()

	kern, err := ops.Lookup(*kernel)
	if err != nil {
		fatal(err)
	}
	p := isa.ConvParams{Ih: *h, Iw: *w, Kh: *ksize, Kw: *ksize, Sh: *s, Sw: *s, Pt: *pad, Pb: *pad, Pl: *pad, Pr: *pad}
	if err := p.Validate(); err != nil {
		fatal(err)
	}
	if *spans != "" {
		if err := runChipTraced(chipOptions{
			kern: kern, p: p,
			seed: *seed, ub: *ub, verify: *verify, level: opt.Level(*optLevel),
			autosched: *autosched, spans: *spans, trace: *trace,
			cores: *cores, batch: *batch, channels: *channels,
			chaos: *chaos, chaosSeed: *chaosSeed, chaosRate: *chaosRate, chaosDegrade: *chaosDegrade,
		}); err != nil {
			fatal(err)
		}
		return
	}

	core := aicore.New(buffer.Config{UBSize: *ub}, nil)
	if *trace != "" || *gantt {
		core.Trace = &aicore.Trace{}
	}
	spec := ops.SpecFor(core)
	spec.Opt = opt.Level(*optLevel)
	spec.AutoSchedule = *autosched
	d := kernelcases.Dims(kern, p)
	pl, err := kern.Compile(itrace.Ctx{}, spec, d)
	if err != nil {
		fatal(err)
	}
	inputs := kernelcases.Tensors(kern, d, 1, 1, kernelcases.Ints(rand.New(rand.NewSource(*seed))))
	outs, st, err := pl.Run(core, inputs...)
	if err != nil {
		fatal(err)
	}
	if *verify {
		if err := verifyGolden(kern, d, inputs, outs); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("kernel=%s input=%v window=(%d,%d) stride=(%d,%d) pad=%d output=%v\n",
		kern.Name, inputs[0].Shape, *ksize, *ksize, *s, *s, *pad, outs[0].Shape)
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
	kern                   *ops.Kernel
	p                      isa.ConvParams
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
				// Transient faults and bitflips fail an attempt at once. A
				// dropped flag re-times the program under AutoSync and the
				// explicit walk; AutoSync is quadratic, about 1.4 s per
				// fault on a 147x147 maxpool_fwd/standard tile (16k
				// instructions, 2 vCPUs), for the same causal shape in the
				// trace.
				Kinds: []faults.Kind{faults.KindTransient, faults.KindBitFlip},
				// Let every attempt fault, so a high -chaos-rate can
				// exhaust the retry budget and the trace shows degrade
				// spans (the default caps faults to the first attempt).
				MaxPerTile: 3,
			}, nil),
			Degrade: o.chaosDegrade,
		}
	}
	dev := chip.New(cfg)

	d := kernelcases.Dims(o.kern, o.p)
	inputs := kernelcases.Tensors(o.kern, d, o.batch, tensor.C1Of(o.channels), kernelcases.Ints(rand.New(rand.NewSource(o.seed))))
	outs, st, err := dev.Run(o.kern.Name, d, inputs...)
	if err != nil {
		return err
	}
	if o.verify {
		if err := verifyGolden(o.kern, d, inputs, outs); err != nil {
			return err
		}
	}
	fmt.Printf("kernel=%s input=%v window=(%d,%d) stride=(%d,%d) output=%v cores=%d\n",
		o.kern.Name, inputs[0].Shape, o.p.Kh, o.p.Kw, o.p.Sh, o.p.Sw, outs[0].Shape, o.cores)
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

// verifyGolden checks a run's outputs against the kernel's golden model
// on the same inputs, bit for bit.
func verifyGolden(k *ops.Kernel, d ops.Dims, inputs, outs []*tensor.Tensor) error {
	for i, want := range k.Golden(d, inputs) {
		if diff := tensor.MaxAbsDiff(outs[i], want); diff != 0 {
			return fmt.Errorf("%s output %d diverges from the golden model (max diff %v)", k.Name, i, diff)
		}
	}
	fmt.Printf("verified: %s matches the golden model\n", k.Name)
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "davinci-sim: %v\n", err)
	os.Exit(1)
}
