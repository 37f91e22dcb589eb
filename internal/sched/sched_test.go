package sched

import (
	"bytes"
	"strings"
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/isa"
	"davinci/internal/kernelcases"
	"davinci/internal/ops"
)

var testShapes = []isa.ConvParams{
	{Ih: 35, Iw: 35, Kh: 3, Kw: 3, Sh: 1, Sw: 1, Pt: 1, Pb: 1, Pl: 1, Pr: 1},
	{Ih: 17, Iw: 17, Kh: 3, Kw: 3, Sh: 2, Sw: 2},
	{Ih: 28, Iw: 28, Kh: 2, Kw: 2, Sh: 2, Sw: 2},
}

// TestQuickcheckCandidates is the seeded quickcheck of the search space,
// over every kernel of the ops dispatch table. Every candidate the search
// enumerates either is outside the space — its recompile fails with an
// invalid-schedule or capacity error, nothing else — or recompiles to a
// canonical plan whose outputs are bit-identical to the hand-tuned
// default on the family's gate inputs. The candidates of the kernel's own
// mode (the default included) recompile strict and pass the
// schedule-space lint checks (checkProgram), the default without even a
// warning; other modes' candidates get them when their own kernel is
// searched, so each program is linted once per shape. Kernels run as
// parallel subtests, so under -race this also exercises concurrent plan
// compilation through the shared planner machinery.
func TestQuickcheckCandidates(t *testing.T) {
	for _, kernel := range allKernels() {
		t.Run(kernel, func(t *testing.T) {
			t.Parallel()
			for _, p := range testShapes {
				quickcheckShape(t, kernel, p)
			}
		})
	}
}

func quickcheckShape(t *testing.T, kernel string, p isa.ConvParams) {
	res, err := Search(kernel, ops.Spec{}, p, Options{})
	if err != nil {
		if kernelcases.IsCapacitySkip(err) {
			return
		}
		t.Fatalf("%s %v: %v", kernel, p, err)
	}
	def, err := ops.CompileKernel(kernel, ops.Spec{}, p, ops.ScheduleParams{})
	if err != nil {
		t.Fatalf("%s %v: default: %v", kernel, p, err)
	}
	family, mode, _ := strings.Cut(kernel, "/")
	inputs, err := gateInputs(family, p)
	if err != nil {
		t.Fatalf("%s: gate inputs: %v", kernel, err)
	}
	want, _, err := def.Run(aicore.New(ops.Spec{}.Buffers.Normalized(), nil), inputs...)
	if err != nil {
		t.Fatalf("%s %v: default run: %v", kernel, p, err)
	}
	for _, cand := range res.Candidates {
		if cand.Invalid != "" {
			// Outside the space is the contract, but only for the two
			// legal reasons.
			if _, err := ops.CompileKernel(kernel, ops.Spec{}, p, cand.Params); !ops.IsInvalidSchedule(err) && !kernelcases.IsCapacitySkip(err) {
				t.Errorf("%s %v: candidate %s marked invalid (%s), recompile error %v is neither an invalid schedule nor a capacity error",
					kernel, p, cand.Params, cand.Invalid, err)
			}
			continue
		}
		own := cand.Resolved.Mode == mode
		spec := ops.Spec{}
		if own {
			spec = strictSpec
		}
		pl, err := ops.CompileKernel(kernel, spec, p, cand.Resolved)
		if err != nil {
			t.Errorf("%s %v: resolved schedule %s does not recompile (strict=%v): %v", kernel, p, cand.Resolved, own, err)
			continue
		}
		if pl.Sched != cand.Resolved {
			t.Errorf("%s %v: schedule %s not canonical, recompiled to %s", kernel, p, cand.Resolved, pl.Sched)
		}
		if own {
			warns, err := checkProgram(pl)
			if err != nil {
				t.Errorf("%s %v: candidate %s: %v", kernel, p, cand.Resolved, err)
			}
			// These shapes read every input row, so the default
			// schedules lint without warnings too.
			if cand.Default && len(warns) > 0 {
				t.Errorf("%s %v: default schedule: %d explicit lint warning(s), first: %s", kernel, p, len(warns), warns[0])
			}
		}
		got, _, err := pl.Run(aicore.New(ops.Spec{}.Buffers.Normalized(), nil), inputs...)
		if err != nil {
			t.Errorf("%s %v: candidate %s run: %v", kernel, p, cand.Resolved, err)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("%s %v: candidate %s: %d outputs, want %d", kernel, p, cand.Resolved, len(got), len(want))
			continue
		}
		for i := range want {
			if !bytes.Equal(want[i].Data, got[i].Data) {
				t.Errorf("%s %v: candidate %s: output %d differs from default", kernel, p, cand.Resolved, i)
			}
		}
	}
}

// TestSearchReportInvariants checks the search's account of itself: an
// accepted schedule strictly beats the baseline and is reproducible (the
// reported Params recompile to the very program the search adopted); a
// kept default reports baseline cycles.
func TestSearchReportInvariants(t *testing.T) {
	for _, p := range testShapes {
		for _, kernel := range allKernels() {
			res, err := Search(kernel, ops.Spec{}, p, Options{})
			if err != nil {
				if kernelcases.IsCapacitySkip(err) {
					continue
				}
				t.Fatalf("%s %v: %v", kernel, p, err)
			}
			rep := res.Report
			if res.Plan.Auto != rep {
				t.Errorf("%s %v: Plan.Auto is not the report", kernel, p)
			}
			if rep.Accepted {
				if rep.Cycles >= rep.BaselineCycles {
					t.Errorf("%s %v: accepted but %d >= baseline %d", kernel, p, rep.Cycles, rep.BaselineCycles)
				}
				if res.Plan.Sched != rep.Params {
					t.Errorf("%s %v: plan schedule %s != reported %s", kernel, p, res.Plan.Sched, rep.Params)
				}
				re, err := ops.CompileKernel(kernel, ops.Spec{}, p, rep.Params)
				if err != nil {
					t.Fatalf("%s %v: reported schedule does not recompile: %v", kernel, p, err)
				}
				if len(re.Prog.Instrs) != len(res.Plan.Prog.Instrs) {
					t.Errorf("%s %v: recompiled program has %d instrs, adopted has %d",
						kernel, p, len(re.Prog.Instrs), len(res.Plan.Prog.Instrs))
				}
			} else if rep.Cycles != rep.BaselineCycles {
				t.Errorf("%s %v: default kept but Cycles %d != baseline %d", kernel, p, rep.Cycles, rep.BaselineCycles)
			}
			if rep.Confirmed > DefaultConfirm {
				t.Errorf("%s %v: confirmed %d > budget %d", kernel, p, rep.Confirmed, DefaultConfirm)
			}
		}
	}
}

// TestAutoScheduleSpecDispatch checks the ops hook: a Spec with
// AutoSchedule set routes plan compilation through this package and the
// plan carries a search report.
func TestAutoScheduleSpecDispatch(t *testing.T) {
	p := isa.ConvParams{Ih: 28, Iw: 28, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	pl, err := ops.PlanMaxPoolForward("standard", ops.Spec{AutoSchedule: true}, p)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Auto == nil {
		t.Fatal("AutoSchedule plan has no search report")
	}
	if pl.Auto.Kernel != "maxpool_fwd/standard" {
		t.Errorf("report kernel = %q", pl.Auto.Kernel)
	}
	if pl.Auto.BaselineCycles <= 0 {
		t.Errorf("baseline cycles = %d", pl.Auto.BaselineCycles)
	}

	// Off keeps the hand-written plan untouched, with no report.
	def, err := ops.PlanMaxPoolForward("standard", ops.Spec{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if def.Auto != nil {
		t.Error("default plan unexpectedly carries a search report")
	}
	if pl.Auto.Accepted && pl.Auto.Cycles >= pl.Auto.BaselineCycles {
		t.Errorf("accepted schedule does not beat baseline: %d vs %d", pl.Auto.Cycles, pl.Auto.BaselineCycles)
	}
}
