package sched

// The schedule-space lint sweep: every program a kernel's schedule space
// can produce is compiled strict and checked concretely. The candidate
// list is the search's own (modeCandidates), so a new schedule axis is
// swept the day the search starts probing it. TestQuickcheckCandidates
// runs the checks on three shapes; the exhaustive build tag runs them
// over the Table I domain (lintsweep_exhaustive_test.go).

import (
	"fmt"
	"strings"

	"davinci/internal/cce"
	"davinci/internal/depgraph"
	"davinci/internal/isa"
	"davinci/internal/kernelcases"
	"davinci/internal/lint"
	"davinci/internal/ops"
)

// strictSpec is the compile environment of the sweep: default buffers,
// concrete lint at seal time.
var strictSpec = ops.Spec{Strict: true}

// allKernels lists every "family/variant" of the ops dispatch table.
func allKernels() []string {
	var out []string
	for _, fam := range ops.KernelFamilies() {
		for _, v := range ops.KernelVariants(fam) {
			out = append(out, fam+"/"+v)
		}
	}
	return out
}

// sweepCount tallies a sweep: distinct programs checked, how many of
// them carry explicit-mode lint warnings (the first kept as an example),
// and candidates skipped as invalid schedules or over capacity.
type sweepCount struct {
	programs, warned, invalid, capacity int
	example                             string
}

func (c *sweepCount) add(o sweepCount) {
	c.programs += o.programs
	c.warned += o.warned
	c.invalid += o.invalid
	c.capacity += o.capacity
	if c.example == "" {
		c.example = o.example
	}
}

// checkProgram checks a strictly compiled plan (so its program already
// lints without errors in implicit-sync mode) for the rest of what a
// lowering promises: well-formed static bounds (BusyBound <= CritPath),
// no error-severity perf diagnostic, and an explicitly synchronized form
// (cce.AutoSync) that lints without errors in explicit mode, pairs every
// set_flag with a wait_flag and retires under the queue-accurate flag
// replay. It returns the explicit-mode lint warnings; the caller decides
// whether they fail.
func checkProgram(pl *ops.Plan) ([]lint.Diagnostic, error) {
	if pl.Perf.BusyBound > pl.Perf.CritPath {
		return nil, fmt.Errorf("BusyBound %d exceeds CritPath %d", pl.Perf.BusyBound, pl.Perf.CritPath)
	}
	if errs := lint.Errors(pl.Perf.Diags); len(errs) > 0 {
		return nil, fmt.Errorf("perf analysis: %d error(s), first: %s", len(errs), errs[0])
	}
	synced := cce.AutoSync(pl.Prog)
	diags := lint.CheckWith(lint.Options{Caps: strictSpec.Buffers.Capacities(), Mode: lint.SyncExplicit}, synced)
	if errs := lint.Errors(diags); len(errs) > 0 {
		return nil, fmt.Errorf("explicit lint after AutoSync: %d error(s), first: %s", len(errs), errs[0])
	}
	sets, waits := 0, 0
	for _, in := range synced.Instrs {
		switch in.(type) {
		case *isa.SetFlagInstr:
			sets++
		case *isa.WaitFlagInstr:
			waits++
		}
	}
	if sets != waits {
		return nil, fmt.Errorf("%d set_flag vs %d wait_flag after AutoSync", sets, waits)
	}
	if s := depgraph.Replay(synced); len(s.Deadlocked) > 0 {
		return nil, fmt.Errorf("flag replay deadlocks at instruction %d", s.Deadlocked[0])
	}
	return diags, nil
}

// sweepShape compiles kernel's default schedule at p and every candidate
// the search enumerates around it in the kernel's own mode, all under
// strictSpec, and checks each distinct program. The error names the
// first program that failed.
func sweepShape(kernel string, p isa.ConvParams) (sweepCount, error) {
	var n sweepCount
	check := func(pl *ops.Plan) error {
		warns, err := checkProgram(pl)
		if err != nil {
			return fmt.Errorf("%s %v: %s: %w", kernel, p, pl.Sched, err)
		}
		n.programs++
		if len(warns) > 0 {
			n.warned++
			if n.example == "" {
				n.example = fmt.Sprintf("%s %v: %s: %d warning(s), first: %s", kernel, p, pl.Sched, len(warns), warns[0])
			}
		}
		return nil
	}
	_, mode, _ := strings.Cut(kernel, "/")
	def, err := ops.CompileKernel(kernel, strictSpec, p, ops.ScheduleParams{})
	if err != nil {
		if kernelcases.IsCapacitySkip(err) {
			n.capacity++
			return n, nil
		}
		return n, fmt.Errorf("%s %v: default: %w", kernel, p, err)
	}
	if err := check(def); err != nil {
		return n, err
	}
	seen := map[ops.ScheduleParams]bool{def.Sched: true}
	for _, sp := range modeCandidates(mode, def.Sched.Band) {
		pl, err := ops.CompileKernel(kernel, strictSpec, p, sp)
		switch {
		case ops.IsInvalidSchedule(err):
			n.invalid++
			continue
		case kernelcases.IsCapacitySkip(err):
			n.capacity++
			continue
		case err != nil:
			return n, fmt.Errorf("%s %v: %s: %w", kernel, p, sp, err)
		}
		if seen[pl.Sched] {
			continue
		}
		seen[pl.Sched] = true
		if err := check(pl); err != nil {
			return n, err
		}
	}
	return n, nil
}
