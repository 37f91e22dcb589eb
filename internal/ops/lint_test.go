package ops

// Static-verification coverage: every kernel constructor in this package
// must emit programs that lint clean (internal/lint), both under the
// implicit-sync contract the raw programs are written against and under
// explicit semantics after cce.AutoSync inserts the flags. This is the
// acceptance gate the verifier promises: zero diagnostics on every
// built-in kernel, and guaranteed findings once a flag or a bound is
// broken on purpose.

import (
	"math/rand"
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/lint"
	"davinci/internal/ref"
	"davinci/internal/tensor"
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

// captureCore returns a default core that records every program handed to
// Run/RunExplicit, the same hook cmd/davinci-lint uses.
func captureCore() (*aicore.Core, *[]*cce.Program) {
	core := newTestCore()
	progs := &[]*cce.Program{}
	core.OnProgram = func(p *cce.Program) { *progs = append(*progs, p) }
	return core, progs
}

// assertProgsClean lints every captured program in both modes and fails on
// any diagnostic, warnings included.
func assertProgsClean(t *testing.T, label string, progs []*cce.Program) {
	t.Helper()
	if len(progs) == 0 {
		t.Fatalf("%s: no programs captured", label)
	}
	for _, prog := range progs {
		for _, d := range lint.CheckImplicit(prog) {
			t.Errorf("%s: %s (implicit): %s", label, prog.Name, d)
		}
		for _, d := range lint.Check(cce.AutoSync(prog)) {
			t.Errorf("%s: %s (explicit, autosync): %s", label, prog.Name, d)
		}
	}
}

func TestPoolingKernelsLintClean(t *testing.T) {
	for _, p := range lintGrid {
		in := randTile(int64(p.Ih*1000+p.Iw), p)
		mask := ref.ArgmaxMask(in, p)
		oh, ow := p.OutDims()
		grad := tensor.New(1, 1, oh, ow, tensor.C0)
		grad.FillRandom(rand.New(rand.NewSource(int64(p.Ih))), 4)

		for _, fam := range []struct {
			family string
			inputs []*tensor.Tensor
		}{
			{"maxpool_fwd", []*tensor.Tensor{in}},
			{"maxpool_fwd_argmax", []*tensor.Tensor{in}},
			{"maxpool_bwd", []*tensor.Tensor{mask, grad}},
			{"avgpool_fwd", []*tensor.Tensor{in}},
			{"avgpool_bwd", []*tensor.Tensor{grad}},
		} {
			for _, v := range Modes(fam.family) {
				kernel := fam.family + "/" + v
				core, progs := captureCore()
				if _, _, err := runKernel(core, kernel, p, fam.inputs...); err != nil {
					t.Fatalf("%s %+v: %v", kernel, p, err)
				}
				assertProgsClean(t, kernel, *progs)
			}
		}
	}
}

func TestCubeKernelsLintClean(t *testing.T) {
	p := isa.ConvParams{Ih: 10, Iw: 10, Kh: 3, Kw: 3, Sh: 2, Sw: 2, Pt: 1, Pb: 1, Pl: 1, Pr: 1}
	c, co := 32, 20
	rng := rand.New(rand.NewSource(42))
	in := tensor.New(1, tensor.C1Of(c), p.Ih, p.Iw, tensor.C0)
	in.FillRandom(rng, 1)
	weights := tensor.New(co, c, p.Kh, p.Kw)
	weights.FillRandom(rng, 1)
	oh, ow := p.OutDims()
	grad := tensor.New(1, tensor.C1Of(co), oh, ow, tensor.C0)
	grad.FillRandom(rng, 1)

	core, progs := captureCore()
	if _, _, err := conv2D(core, in, weights, p); err != nil {
		t.Fatalf("conv fwd: %v", err)
	}
	assertProgsClean(t, "conv/fwd", *progs)

	core, progs = captureCore()
	if _, _, err := conv2DBackwardData(core, grad, weights, p, c); err != nil {
		t.Fatalf("conv bwd data: %v", err)
	}
	assertProgsClean(t, "conv/bwd-data", *progs)

	core, progs = captureCore()
	if _, _, err := conv2DBackwardWeights(core, grad, in, p, co, c); err != nil {
		t.Fatalf("conv bwd weights: %v", err)
	}
	assertProgsClean(t, "conv/bwd-weights", *progs)

	pool := isa.ConvParams{Ih: 20, Iw: 20, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	core, progs = captureCore()
	if _, _, err := runOne(core, "avgpool_fwd/cube", pool, randTile(3, pool)); err != nil {
		t.Fatalf("avg cube: %v", err)
	}
	assertProgsClean(t, "avg/cube", *progs)
}

// TestWorkloadProgramsLintClean runs the Im2col-family kernels — whose
// program sizes stay small at production shapes — over every Table I layer
// and lints everything they emit.
func TestWorkloadProgramsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("table-wide lint sweep")
	}
	for _, l := range workloads.TableI {
		p := l.Params()
		in := randTile(int64(l.H*10+l.W), p)
		mask := ref.ArgmaxMask(in, p)
		oh, ow := p.OutDims()
		grad := tensor.New(1, 1, oh, ow, tensor.C0)
		grad.FillRandom(rand.New(rand.NewSource(int64(l.H))), 4)

		label := l.Network + "/" + string(rune('0'+l.Index))

		core, progs := captureCore()
		if _, _, err := runOne(core, "maxpool_fwd/im2col", p, in); err != nil {
			t.Fatalf("%s fwd: %v", label, err)
		}
		assertProgsClean(t, label+"/im2col", *progs)

		core, progs = captureCore()
		if _, _, err := runKernel(core, "maxpool_fwd_argmax/im2col", p, in); err != nil {
			t.Fatalf("%s argmax: %v", label, err)
		}
		assertProgsClean(t, label+"/argmax-im2col", *progs)

		core, progs = captureCore()
		if _, _, err := runOne(core, "maxpool_bwd/col2im", p, mask, grad); err != nil {
			t.Fatalf("%s bwd: %v", label, err)
		}
		assertProgsClean(t, label+"/col2im", *progs)

		core, progs = captureCore()
		if _, _, err := runOne(core, "avgpool_fwd/im2col", p, in); err != nil {
			t.Fatalf("%s avg: %v", label, err)
		}
		assertProgsClean(t, label+"/avg-im2col", *progs)
	}
}

// capturedIm2colProgram returns one AutoSync'd program from the Im2col
// forward kernel at the InceptionV3 input-3 shape: the seed for the
// break-it acceptance tests below.
func capturedIm2colProgram(t *testing.T) *cce.Program {
	t.Helper()
	p := isa.ConvParams{Ih: 35, Iw: 35, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	core, progs := captureCore()
	if _, _, err := runOne(core, "maxpool_fwd/im2col", p, randTile(5, p)); err != nil {
		t.Fatal(err)
	}
	if len(*progs) == 0 {
		t.Fatal("no program captured")
	}
	return cce.AutoSync((*progs)[0])
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
