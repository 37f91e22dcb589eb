package ops

// Static-verification coverage: every kernel constructor in this package
// must emit programs that lint clean (internal/lint), both under the
// implicit-sync contract the raw programs are written against and under
// explicit semantics after cce.AutoSync inserts the flags. This is the
// acceptance gate the verifier promises: zero diagnostics on every
// built-in kernel, and guaranteed findings once a flag or a bound is
// broken on purpose.

import (
	"testing"

	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/lint"
	"davinci/internal/trace"
	"davinci/internal/workloads"
)

// lintGrid keeps the quadratic passes affordable on the standard-lowering
// variants (which emit one instruction per pooling window) while still
// covering strides, padding, odd shapes and a real InceptionV3 tile.
var lintGrid = []isa.ConvParams{
	{Ih: 20, Iw: 20, Kh: 2, Kw: 2, Sh: 2, Sw: 2},
	{Ih: 17, Iw: 17, Kh: 3, Kw: 3, Sh: 1, Sw: 1, Pt: 1, Pb: 1, Pl: 1, Pr: 1},
	{Ih: 35, Iw: 35, Kh: 3, Kw: 3, Sh: 2, Sw: 2}, // InceptionV3 input 3
}

// planProg returns the program kernel compiles to for d under the
// default spec: the instruction stream Plan.Run executes.
func planProg(t *testing.T, kernel string, d Dims) *cce.Program {
	t.Helper()
	k, err := Lookup(kernel)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := testPlans.Plan(trace.Ctx{}, k, Spec{}, d)
	if err != nil {
		t.Fatalf("%s %+v: %v", kernel, d.P, err)
	}
	return pl.Prog
}

// assertProgClean lints prog in both modes and fails on any diagnostic,
// warnings included.
func assertProgClean(t *testing.T, label string, prog *cce.Program) {
	t.Helper()
	for _, d := range lint.CheckImplicit(prog) {
		t.Errorf("%s: %s (implicit): %s", label, prog.Name, d)
	}
	for _, d := range lint.Check(cce.AutoSync(prog)) {
		t.Errorf("%s: %s (explicit, autosync): %s", label, prog.Name, d)
	}
}

func TestPoolingKernelsLintClean(t *testing.T) {
	for _, p := range lintGrid {
		for _, family := range []string{"maxpool_fwd", "maxpool_fwd_argmax", "maxpool_bwd", "avgpool_fwd", "avgpool_bwd"} {
			for _, v := range Modes(family) {
				kernel := family + "/" + v
				assertProgClean(t, kernel, planProg(t, kernel, Dims{P: p}))
			}
		}
	}
}

func TestCubeKernelsLintClean(t *testing.T) {
	p := isa.ConvParams{Ih: 10, Iw: 10, Kh: 3, Kw: 3, Sh: 2, Sw: 2, Pt: 1, Pb: 1, Pl: 1, Pr: 1}
	d := Dims{P: p, Co: 20, C: 32}
	assertProgClean(t, "conv/fwd", planProg(t, "conv2d", d))
	assertProgClean(t, "conv/bwd-data", planProg(t, "conv2d_bwd_data", d))
	assertProgClean(t, "conv/bwd-weights", planProg(t, "conv2d_bwd_weights", d))
	pool := isa.ConvParams{Ih: 20, Iw: 20, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	assertProgClean(t, "avg/cube", planProg(t, "avgpool_fwd/cube", Dims{P: pool}))
}

// TestWorkloadProgramsLintClean compiles the Im2col-family kernels —
// whose program sizes stay small at production shapes — over every
// Table I layer and lints their programs.
func TestWorkloadProgramsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("table-wide lint sweep")
	}
	for _, l := range workloads.TableI {
		d := Dims{P: l.Params()}
		label := l.Network + "/" + string(rune('0'+l.Index))
		assertProgClean(t, label+"/im2col", planProg(t, "maxpool_fwd/im2col", d))
		assertProgClean(t, label+"/argmax-im2col", planProg(t, "maxpool_fwd_argmax/im2col", d))
		assertProgClean(t, label+"/col2im", planProg(t, "maxpool_bwd/col2im", d))
		assertProgClean(t, label+"/avg-im2col", planProg(t, "avgpool_fwd/im2col", d))
	}
}

// capturedIm2colProgram returns the AutoSync'd program of the Im2col
// forward kernel at the InceptionV3 input-3 shape: the seed for the
// break-it acceptance tests below.
func capturedIm2colProgram(t *testing.T) *cce.Program {
	t.Helper()
	p := isa.ConvParams{Ih: 35, Iw: 35, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	return cce.AutoSync(planProg(t, "maxpool_fwd/im2col", Dims{P: p}))
}

// TestLintFlagsRemovedWait deletes the first wait_flag from a synced
// kernel program: the hazard pass must report the now-uncovered
// cross-pipe dependency.
func TestLintFlagsRemovedWait(t *testing.T) {
	prog := capturedIm2colProgram(t)
	broken := cce.New(prog.Name + "-no-wait")
	removed := false
	for _, in := range prog.Instrs {
		if _, ok := in.(*isa.WaitFlagInstr); ok && !removed {
			removed = true
			continue
		}
		broken.Emit(in)
	}
	if !removed {
		t.Fatal("program has no wait_flag to remove")
	}
	diags := lint.Check(broken)
	var hazard, sync bool
	for _, d := range diags {
		switch d.Pass {
		case "hazard":
			hazard = true
		case "sync":
			sync = true
		}
	}
	if !hazard {
		t.Errorf("removed wait_flag not caught by hazard pass; diags: %v", diags)
	}
	if !sync {
		t.Errorf("removed wait_flag leaves an unconsumed set_flag the sync pass must flag; diags: %v", diags)
	}
}

// TestLintFlagsOutOfBounds bumps one scratch-pad copy destination past the
// buffer capacity: the bounds pass must report the overflow.
func TestLintFlagsOutOfBounds(t *testing.T) {
	prog := capturedIm2colProgram(t)
	caps := buffer.Config{}.Capacities()
	broken := cce.New(prog.Name + "-oob")
	bumped := false
	for _, in := range prog.Instrs {
		if cp, ok := in.(*isa.CopyInstr); ok && !bumped && cp.DstBuf != isa.GM {
			moved := *cp
			moved.DstAddr = caps[moved.DstBuf] - isa.BlockBytes
			broken.Emit(&moved)
			bumped = true
			continue
		}
		broken.Emit(in)
	}
	if !bumped {
		t.Fatal("program has no scratch-pad copy to displace")
	}
	found := false
	for _, d := range lint.Check(broken) {
		if d.Pass == "bounds" && d.Sev == lint.SevError {
			found = true
		}
	}
	if !found {
		t.Error("displaced UB copy not caught by bounds pass")
	}
}

// TestHazardPassIndependentOfAutoSync strips every flag AutoSync inserted:
// the hazard pass must rediscover at least one uncovered cross-pipe
// dependency entirely from the data-flow, proving it does not merely
// parrot AutoSync's own bookkeeping.
func TestHazardPassIndependentOfAutoSync(t *testing.T) {
	prog := capturedIm2colProgram(t)
	stripped := cce.New(prog.Name + "-stripped")
	had := false
	for _, in := range prog.Instrs {
		switch in.(type) {
		case *isa.SetFlagInstr, *isa.WaitFlagInstr:
			had = true
			continue
		}
		stripped.Emit(in)
	}
	if !had {
		t.Fatal("AutoSync inserted no flags")
	}
	hazards := 0
	for _, d := range lint.Check(stripped) {
		if d.Pass == "hazard" && d.Sev == lint.SevError {
			hazards++
		}
	}
	if hazards == 0 {
		t.Error("stripping all flags produced no hazard diagnostics")
	}
}
