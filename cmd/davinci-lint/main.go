// Command davinci-lint runs the static analyses (internal/lint and
// internal/lint/perf) over the built-in kernels and prints per-program
// tables. Kernels are compiled once per layer configuration through the
// ops Plan API — no inputs and no simulation are needed; the cached
// instruction stream (Plan.Prog) is the analysis subject.
//
// In the default (correctness) mode every plan is linted twice — raw
// under the implicit-sync contract, and after cce.AutoSync under full
// explicit-sync semantics (bounds, sync protocol, cross-pipe hazards,
// ISA invariants) — and any diagnostic sets exit status 1, so the
// command works as a CI gate.
//
// With -perf the command prints the static performance report instead:
// critical-path and occupancy cycle bounds, mean vector lane occupancy,
// sync-induced stalls, and the perf diagnostics (coalescable repeat=1
// runs, low lane occupancy, serializing set/wait pairs, dead barriers).
// Perf warnings are advisory; only error-severity perf diagnostics (the
// analyzer's internal self-checks) set exit status 1.
//
// With -opt N every kernel is compiled twice — baseline and through the
// static optimizer (internal/opt) at that level — and the rewrite report
// is printed: instruction and cycle deltas plus how many of the perf
// diagnostics the optimizer targets (coalescable runs, serializing
// set/wait pairs, dead barriers) were discharged. A rejected
// optimization, a slower optimized program, or a surviving targeted
// diagnostic sets exit status 1, so the mode doubles as a CI gate.
//
// Example:
//
//	davinci-lint                  # Fig. 7 InceptionV3 layers
//	davinci-lint -all             # every Table I layer
//	davinci-lint -perf            # static performance report + lint
//	davinci-lint -perf -json      # the same, machine-readable
//	davinci-lint -opt 2 -all      # optimizer rewrite report, every layer
//	davinci-lint -fixture broken  # demo diagnostics on a broken program
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/kernelcases"
	"davinci/internal/lint"
	"davinci/internal/lint/perf"
	"davinci/internal/ops"
	"davinci/internal/opt"
	"davinci/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("davinci-lint", flag.ContinueOnError)
	fs.SetOutput(out)
	all := fs.Bool("all", false, "lint every Table I layer (default: the three Fig. 7 InceptionV3 layers)")
	perfMode := fs.Bool("perf", false, "print the static performance report (bounds, occupancy, stalls) instead of the correctness lint")
	jsonOut := fs.Bool("json", false, "with -perf, emit the reports as JSON")
	optLevel := fs.Int("opt", 0, "compile through the static optimizer at this level and print the rewrite report (before/after cycles and targeted diagnostics)")
	fixture := fs.String("fixture", "", "lint a named broken fixture instead of the kernels (available: broken)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch *fixture {
	case "":
		if *optLevel > 0 {
			return optKernels(out, *all, opt.Level(*optLevel))
		}
		if *perfMode {
			return perfKernels(out, *all, *jsonOut)
		}
		return lintKernels(out, *all)
	case "broken":
		return lintPrograms(out, "fixture/broken", brokenFixture(), lint.Check)
	default:
		fmt.Fprintf(out, "unknown fixture %q\n", *fixture)
		return 2
	}
}

// direct reports whether a catalogue kernel is a direct lowering
// (standard/expansion/xysplit): those emit one instruction per pooling
// window and the hazard analysis is quadratic, so they only run on the
// smallest selected layer; the im2col/col2im/cube family stays compact at
// every production shape and runs on all of them.
func direct(kc kernelcases.Case) bool {
	switch kc.Kernel.Mode {
	case "standard", "expansion", "xysplit":
		return true
	}
	return false
}

// sweep compiles every applicable kernel for every selected layer and
// hands each plan to visit. Shapes a kernel cannot schedule (the tile
// exceeds a scratch-pad) are reported to skip, like the chip-level
// tiling would skip them.
func sweep(all bool, visit func(label string, pl *ops.Plan), skip func(label string, err error) bool) bool {
	layers := workloads.InceptionV3Fig7()
	if all {
		layers = workloads.TableI
	}
	ok := true
	spec := ops.Spec{}
	for _, l := range layers {
		p := l.Params()
		for _, kc := range kernelcases.All() {
			if direct(kc) && !smallest(layers, l) {
				continue
			}
			label := fmt.Sprintf("%s@%s/%d", kc.Name, l.Network, l.Index)
			pl, err := kc.Plan(spec, p)
			if err != nil {
				if !skip(label, err) {
					ok = false
				}
				continue
			}
			visit(label, pl)
		}
	}
	return ok
}

// lintKernels is the correctness gate: every plan's program is linted
// raw (implicit-sync contract) and after AutoSync (explicit semantics).
func lintKernels(out io.Writer, all bool) int {
	status := 0
	fmt.Fprintf(out, "%-44s %-30s %7s %6s %s\n", "KERNEL", "PROGRAM", "INSTRS", "DIAGS", "STATUS")
	ok := sweep(all,
		func(label string, pl *ops.Plan) {
			n := report(out, label, pl.Prog, lint.CheckImplicit(pl.Prog))
			synced := cce.AutoSync(pl.Prog)
			n += report(out, label, synced, lint.Check(synced))
			if n > 0 {
				status = 1
			}
		},
		func(label string, err error) bool {
			if kernelcases.IsCapacitySkip(err) {
				fmt.Fprintf(out, "%-44s %-30s %7s %6s skip (%v)\n", label, "-", "-", "-", err)
				return true
			}
			fmt.Fprintf(out, "%-44s %v\n", label, err)
			return false
		})
	if !ok {
		status = 1
	}
	return status
}

// perfRow is one plan's entry in the -perf -json output.
type perfRow struct {
	Kernel  string       `json:"kernel"`
	Program string       `json:"program"`
	Report  *perf.Report `json:"report"`
}

// perfKernels prints the static performance report per plan. Warnings
// are advisory (the standard lowerings' low lane occupancy is the
// paper's point, not a bug); only error-severity diagnostics — the
// analyzer's internal bound self-check — fail the gate.
func perfKernels(out io.Writer, all, jsonOut bool) int {
	status := 0
	var rows []perfRow
	if !jsonOut {
		fmt.Fprintf(out, "%-44s %7s %9s %9s %5s %5s %8s %6s\n",
			"KERNEL", "INSTRS", "CRITPATH", "BUSYBND", "PAR", "OCC%", "STALL", "DIAGS")
	}
	ok := sweep(all,
		func(label string, pl *ops.Plan) {
			r := pl.Perf
			if r == nil { // plans always carry one; belt and braces
				r = perf.Analyze(pl.Prog, perf.Options{Caps: buffer.Config{}.Capacities()})
			}
			if jsonOut {
				rows = append(rows, perfRow{Kernel: label, Program: pl.Prog.Name, Report: r})
			} else {
				fmt.Fprintf(out, "%-44s %7d %9d %9d %5.2f %4.0f%% %8d %6d\n",
					label, r.Instrs, r.CritPath, r.BusyBound, r.Parallelism(),
					100*r.Vector.MeanOccupancy, r.Sync.StallTotal, len(r.Diags))
				for _, d := range r.Diags {
					fmt.Fprintf(out, "    %s\n", d)
				}
			}
			if len(lint.Errors(r.Diags)) > 0 {
				status = 1
			}
		},
		func(label string, err error) bool {
			if kernelcases.IsCapacitySkip(err) {
				if !jsonOut {
					fmt.Fprintf(out, "%-44s skip (%v)\n", label, err)
				}
				return true
			}
			fmt.Fprintf(out, "%-44s %v\n", label, err)
			return false
		})
	if !ok {
		status = 1
	}
	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			fmt.Fprintf(out, "davinci-lint: %v\n", err)
			return 2
		}
	}
	return status
}

// targetedDiag reports whether a perf diagnostic is one the optimizer is
// expected to discharge: coalescable repeat=1 runs, serializing set/wait
// pairs, and dead barriers.
func targetedDiag(msg string) bool {
	return strings.Contains(msg, "fuse via the repeat parameter") ||
		strings.Contains(msg, "serialize with no overlapping work") ||
		strings.Contains(msg, "orders no cross-pipe dependent accesses")
}

// optKernels compiles every built-in kernel twice — baseline and through
// the static optimizer — and prints the rewrite report: instruction and
// cycle deltas, the translation-validation verdict, and how many of the
// perf diagnostics the optimizer targets were discharged. A rejected
// optimization, a slower optimized program, or a surviving targeted
// diagnostic fails the gate.
func optKernels(out io.Writer, all bool, level opt.Level) int {
	status := 0
	fmt.Fprintf(out, "%-44s %6s %6s %9s %9s %6s %5s %5s %s\n",
		"KERNEL", "INSTRS", ">OPT", "CYCLES", ">OPT", "SAVED%", "TDIAG", ">OPT", "VERDICT")
	layers := workloads.InceptionV3Fig7()
	if all {
		layers = workloads.TableI
	}
	for _, l := range layers {
		p := l.Params()
		for _, kc := range kernelcases.All() {
			if direct(kc) && !smallest(layers, l) {
				continue
			}
			label := fmt.Sprintf("%s@%s/%d", kc.Name, l.Network, l.Index)
			base, err := kc.Plan(ops.Spec{}, p)
			if err != nil {
				if kernelcases.IsCapacitySkip(err) {
					fmt.Fprintf(out, "%-44s skip (%v)\n", label, err)
					continue
				}
				fmt.Fprintf(out, "%-44s %v\n", label, err)
				status = 1
				continue
			}
			pl, err := kc.Plan(ops.Spec{Opt: level}, p)
			if err != nil {
				fmt.Fprintf(out, "%-44s optimizing compile: %v\n", label, err)
				status = 1
				continue
			}
			r := pl.Opt
			before, after := 0, 0
			for _, d := range base.Perf.Diags {
				if targetedDiag(d.Msg) {
					before++
				}
			}
			for _, d := range pl.Perf.Diags {
				if targetedDiag(d.Msg) {
					after++
				}
			}
			if r == nil {
				fmt.Fprintf(out, "%-44s optimizing spec produced no opt report\n", label)
				status = 1
				continue
			}
			verdict := "ok"
			switch {
			case r.Rejected != "":
				verdict, status = "REJECTED: "+r.Rejected, 1
			case r.Cycles > r.BaselineCycles:
				verdict, status = "SLOWER", 1
			case after > 0:
				verdict, status = "TARGETED DIAGS SURVIVE", 1
			}
			pct := float64(0)
			if r.BaselineCycles > 0 {
				pct = 100 * float64(r.Saved()) / float64(r.BaselineCycles)
			}
			fmt.Fprintf(out, "%-44s %6d %6d %9d %9d %5.1f%% %5d %5d %s\n",
				label, r.BaselineInstrs, r.Instrs, r.BaselineCycles, r.Cycles, pct, before, after, verdict)
			if r.SkippedReschedule != nil {
				fmt.Fprintf(out, "    note: rescheduling skipped (%v)\n", r.SkippedReschedule)
			}
		}
	}
	return status
}

func smallest(layers []workloads.CNNLayer, l workloads.CNNLayer) bool {
	best := layers[0]
	for _, c := range layers {
		if c.H*c.W < best.H*best.W {
			best = c
		}
	}
	return l == best
}

func lintPrograms(out io.Writer, label string, progs []*cce.Program, check func(*cce.Program) []lint.Diagnostic) int {
	status := 0
	fmt.Fprintf(out, "%-44s %-30s %7s %6s %s\n", "KERNEL", "PROGRAM", "INSTRS", "DIAGS", "STATUS")
	for _, prog := range progs {
		if report(out, label, prog, check(prog)) > 0 {
			status = 1
		}
	}
	return status
}

// report prints one table row plus any diagnostics, returning the count.
func report(out io.Writer, kernel string, prog *cce.Program, diags []lint.Diagnostic) int {
	verdict := "ok"
	if len(diags) > 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(out, "%-44s %-30s %7d %6d %s\n", kernel, prog.Name, prog.Len(), len(diags), verdict)
	for _, d := range diags {
		fmt.Fprintf(out, "    %s\n", d)
	}
	return len(diags)
}

// brokenFixture builds a small producer/consumer program with two planted
// bugs — a missing wait_flag (the set fires but nothing consumes it, and
// the vector read races the load) and a copy displaced past the Unified
// Buffer capacity — to demonstrate the diagnostic output.
func brokenFixture() []*cce.Program {
	prog := cce.New("broken_producer_consumer")
	// MTE2 load, set_flag... but the consumer's wait_flag was "forgotten".
	prog.EmitCopy(isa.GM, 0, isa.UB, 0, 4096)
	prog.Emit(&isa.SetFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 0})
	prog.EmitVec(isa.VMuls, isa.Contig(isa.UB, 4096), isa.Contig(isa.UB, 0), isa.Operand{},
		0x4000, isa.FullMask(), 16)
	prog.Emit(&isa.SetFlagInstr{SrcPipe: isa.PipeVector, DstPipe: isa.PipeMTE3, Event: 0})
	prog.Emit(&isa.WaitFlagInstr{SrcPipe: isa.PipeVector, DstPipe: isa.PipeMTE3, Event: 0})
	prog.EmitCopy(isa.UB, 4096, isa.GM, 65536, 4096)
	// The result store that lands 48 bytes past the end of the UB.
	prog.EmitCopy(isa.GM, 131072, isa.UB, buffer.DefaultUBSize-16, 64)
	prog.EmitCopy(isa.UB, buffer.DefaultUBSize-16, isa.GM, 131072, 16)
	return []*cce.Program{prog}
}
