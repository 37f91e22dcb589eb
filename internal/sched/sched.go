// Package sched is the schedule search layer: given a kernel family, a
// layer shape and a compile Spec, it enumerates the kernel's
// ScheduleParams space (internal/ops), ranks candidates with the static
// critical-path oracle (internal/lint/perf), confirms the frontier with
// the cycle-accurate scoreboard (internal/aicore), and adopts a searched
// schedule only when it beats the hand-tuned default AND passes a
// translation-validation-style gate: lint-clean, makespan inside the
// [BusyBound, CritPath] invariant, and bit-identical outputs on
// family-specific gate inputs.
//
// Importing this package registers the search with internal/ops
// (ops.RegisterAutoScheduler), which is how ops.Spec.AutoSchedule
// dispatches here without ops depending on sched.
package sched

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"davinci/internal/aicore"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/lint"
	"davinci/internal/ops"
	"davinci/internal/tensor"
	"davinci/internal/trace"
)

// Options tunes one search.
type Options struct {
	// Confirm caps how many statically-ranked candidates are confirmed
	// with the cycle-accurate oracle; 0 means DefaultConfirm. Candidates
	// beyond the cap (or whose occupancy lower bound already exceeds the
	// best confirmed makespan) are pruned on static bounds alone.
	Confirm int
	// SameModeOnly restricts the search to the requested lowering mode
	// instead of treating the mode as a schedule axis.
	SameModeOnly bool
	// Trace is the tracing context the search reports into: a
	// sched_search span for the whole call, with one sched_candidate
	// child per frontier candidate confirmed on the cycle oracle. The
	// zero Ctx (the default) disables tracing.
	Trace trace.Ctx
}

// DefaultConfirm is the oracle-confirmation budget when Options.Confirm
// is zero.
const DefaultConfirm = 4

// Candidate is one enumerated point of the schedule space, as reported
// in Result.Candidates (the frontier dump of davinci-layout).
type Candidate struct {
	// Params is the schedule the enumerator requested; Resolved is the
	// canonical schedule the lowering actually executed (zero knobs
	// resolved to concrete values). Invalid candidates have no Resolved.
	Params, Resolved ops.ScheduleParams
	// CritPath and BusyBound are the static makespan bounds of the
	// compiled candidate.
	CritPath, BusyBound int64
	// Cycles is the oracle-confirmed makespan when Confirmed.
	Cycles int64
	// Confirmed reports the candidate was simulated, not just bounded.
	Confirmed bool
	// Default marks the hand-tuned schedule the search must beat.
	Default bool
	// Invalid carries the compile error when the candidate was outside
	// the kernel's schedule space (ops.InvalidScheduleError) or over
	// capacity.
	Invalid string
}

// Result is one completed search.
type Result struct {
	// Kernel is the searched kernel, "family/variant".
	Kernel string
	// Plan is the adopted plan — the searched winner when
	// Report.Accepted, the hand-tuned default otherwise. Plan.Auto ==
	// Report.
	Plan *ops.Plan
	// Report is the search account (also attached to Plan.Auto).
	Report *ops.AutoSchedReport
	// Candidates is the ranked frontier: the default first, then valid
	// candidates by ascending critical path, then invalid ones.
	Candidates []Candidate
}

// Search explores the schedule space of kernel ("family/variant") for
// (spec, p). The returned plan is always safe to adopt: either the
// hand-tuned default, or a searched schedule that beat it under the
// cycle oracle and passed the validation gate.
func Search(kernel string, spec ops.Spec, p isa.ConvParams, o Options) (*Result, error) {
	start := time.Now()
	ss := o.Trace.StartSpan("sched_search", "impl", kernel)
	defer ss.End()
	spec.AutoSchedule = false
	spec.Buffers = spec.Buffers.Normalized()
	confirmBudget := o.Confirm
	if confirmBudget <= 0 {
		confirmBudget = DefaultConfirm
	}
	family, variant, ok := strings.Cut(kernel, "/")
	if !ok {
		return nil, fmt.Errorf("sched: kernel %q: want \"family/variant\"", kernel)
	}
	cost := isa.DefaultCostModel()

	// The default compile: its errors (shape over capacity) propagate
	// unchanged, so an AutoSchedule Spec skips exactly the shapes the
	// hand-written path skips.
	def, err := ops.CompileKernel(kernel, spec, p, ops.ScheduleParams{})
	if err != nil {
		return nil, err
	}
	baseCycles := aicore.Time(def.Prog, cost, false).Cycles

	modes := []string{variant}
	if !o.SameModeOnly {
		modes = modes[:0]
		for _, m := range ops.Modes(family) {
			if m == variant {
				continue
			}
			modes = append(modes, m)
		}
		modes = append([]string{variant}, modes...)
	}

	seen := map[ops.ScheduleParams]bool{def.Sched: true}
	var pool []*compiledCandidate
	var invalid []Candidate
	considered, pruned := 0, 0

	try := func(sp ops.ScheduleParams) *compiledCandidate {
		considered++
		pl, err := ops.CompileKernel(kernel, spec, p, sp)
		if err != nil {
			pruned++
			invalid = append(invalid, Candidate{Params: sp, Invalid: err.Error()})
			return nil
		}
		if seen[pl.Sched] {
			// Resolved to an already-enumerated point (e.g. an explicit
			// knob matching what the default resolved to).
			pruned++
			return nil
		}
		seen[pl.Sched] = true
		c := &compiledCandidate{pl: pl, cand: Candidate{
			Params:    sp,
			Resolved:  pl.Sched,
			CritPath:  pl.Perf.CritPath,
			BusyBound: pl.Perf.BusyBound,
		}}
		pool = append(pool, c)
		return c
	}

	for _, m := range modes {
		base := def
		if m != def.Sched.Mode {
			c := try(ops.ScheduleParams{Mode: m})
			if c == nil {
				// The mode's own default failed (over capacity for this
				// shape) or resolved onto a known point; without its
				// resolved band there is nothing to perturb.
				continue
			}
			base = c.pl
		}
		for _, sp := range modeCandidates(m, base.Sched.Band) {
			try(sp)
		}
	}

	// Rank by the static upper bound: the candidate that cannot be worse
	// than X cycles is confirmed before one that cannot be worse than 2X.
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].cand.CritPath < pool[j].cand.CritPath })

	bestCycles := baseCycles
	confirmed := 0
	var winners []*compiledCandidate
	for _, c := range pool {
		if confirmed >= confirmBudget || c.cand.BusyBound >= bestCycles {
			// Rank cut or bound cut: the occupancy lower bound already
			// matches or exceeds the best confirmed makespan.
			pruned++
			continue
		}
		confirmed++
		cs := ss.Ctx().StartSpan("sched_candidate", "impl", c.pl.Sched.String())
		c.cand.Cycles = aicore.Time(c.pl.Prog, cost, false).Cycles
		c.cand.Confirmed = true
		cs.SetAttr("cycles", strconv.FormatInt(c.cand.Cycles, 10))
		cs.End()
		if c.cand.Cycles < bestCycles {
			bestCycles = c.cand.Cycles
		}
		if c.cand.Cycles < baseCycles {
			winners = append(winners, c)
		}
	}
	sort.SliceStable(winners, func(i, j int) bool { return winners[i].cand.Cycles < winners[j].cand.Cycles })

	rep := &ops.AutoSchedReport{
		Kernel:         kernel,
		Considered:     considered,
		Pruned:         pruned,
		Confirmed:      confirmed,
		BaselineCycles: baseCycles,
		Cycles:         baseCycles,
		Params:         def.Sched,
	}
	plan := def
	inputs, gateErr := gateInputs(family, p)
	if gateErr != nil && len(winners) > 0 {
		rep.Rejected = gateErr.Error()
	}
	if gateErr == nil {
		// Accept the fastest confirmed improvement that survives the
		// validation gate; a gate failure falls through to the next
		// winner, and to the default when none survive.
		for _, w := range winners {
			reason := validate(spec, def, w, inputs)
			if reason == "" {
				rep.Accepted = true
				rep.Cycles = w.cand.Cycles
				rep.Params = w.pl.Sched
				rep.Rejected = ""
				plan = w.pl
				break
			}
			rep.Rejected = fmt.Sprintf("%s: %s", w.pl.Sched, reason)
		}
	}
	rep.WallNanos = time.Since(start).Nanoseconds()
	plan.Auto = rep
	if rep.Accepted {
		ss.SetAttr("outcome", "accepted")
	} else if rep.Rejected != "" {
		ss.SetAttr("outcome", "rejected")
	} else {
		ss.SetAttr("outcome", "default")
	}
	ss.SetAttr("candidates", strconv.Itoa(considered))

	res := &Result{Kernel: kernel, Plan: plan, Report: rep}
	res.Candidates = append(res.Candidates, Candidate{
		Resolved: def.Sched, Params: ops.ScheduleParams{Mode: def.Sched.Mode},
		CritPath: def.Perf.CritPath, BusyBound: def.Perf.BusyBound,
		Cycles: baseCycles, Confirmed: true, Default: true,
	})
	for _, c := range pool {
		res.Candidates = append(res.Candidates, c.cand)
	}
	res.Candidates = append(res.Candidates, invalid...)
	return res, nil
}

// validate is the acceptance gate: a searched schedule replaces the
// hand-tuned default only if its program is lint-clean under implicit
// sync, its confirmed makespan respects the static bound invariant, and
// it produces bit-identical outputs to the default plan on the family's
// gate inputs. Returns "" on success, the rejection reason otherwise.
func validate(spec ops.Spec, def *ops.Plan, w *compiledCandidate, inputs []*tensor.Tensor) string {
	diags := lint.CheckWith(lint.Options{Caps: spec.Buffers.Capacities(), Mode: lint.SyncImplicit}, w.pl.Prog)
	if errs := lint.Errors(diags); len(errs) > 0 {
		return fmt.Sprintf("lint: %d error(s), first: %s", len(errs), errs[0])
	}
	if w.cand.Cycles < w.cand.BusyBound || w.cand.Cycles > w.cand.CritPath {
		return fmt.Sprintf("makespan %d outside static bounds [%d, %d]", w.cand.Cycles, w.cand.BusyBound, w.cand.CritPath)
	}
	same, err := identicalOutputs(spec, def, w.pl, inputs)
	if err != nil {
		return fmt.Sprintf("gate run: %v", err)
	}
	if !same {
		return "outputs differ from the default schedule"
	}
	return ""
}

// identicalOutputs replays both plans on fresh cores and compares every
// output tensor byte for byte.
func identicalOutputs(spec ops.Spec, a, b *ops.Plan, inputs []*tensor.Tensor) (bool, error) {
	outsA, _, err := a.Run(aicore.New(spec.Buffers, nil), inputs...)
	if err != nil {
		return false, fmt.Errorf("default plan: %w", err)
	}
	outsB, _, err := b.Run(aicore.New(spec.Buffers, nil), inputs...)
	if err != nil {
		return false, fmt.Errorf("candidate plan: %w", err)
	}
	if len(outsA) != len(outsB) {
		return false, nil
	}
	for i := range outsA {
		if !bytes.Equal(outsA[i].Data, outsB[i].Data) {
			return false, nil
		}
	}
	return true, nil
}

// gateInputs builds the family-specific inputs the output-equality gate
// runs both plans on. Values are chosen so binary16 arithmetic is exact
// under any schedule: small integers make vmax/vadd reductions exact,
// 0/1 masks times integer gradients keep the backward scatters exact,
// and the Avgpool backward uses a constant gradient so its scaled
// accumulation is order-invariant (every addend is the same value, so
// all summation orders see the same running totals).
func gateInputs(family string, p isa.ConvParams) ([]*tensor.Tensor, error) {
	rng := rand.New(rand.NewSource(int64(1 + p.Ih*31 + p.Iw*7 + p.Kh*3 + p.Sh)))
	intFill := func(t *tensor.Tensor, n int) {
		for i := 0; i < t.Len(); i++ {
			t.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(n))))
		}
	}
	switch family {
	case "maxpool_fwd", "maxpool_fwd_argmax", "avgpool_fwd":
		in := tensor.New(1, 1, p.Ih, p.Iw, tensor.C0)
		intFill(in, 8)
		return []*tensor.Tensor{in}, nil
	case "maxpool_bwd":
		oh, ow := p.OutDims()
		mask := tensor.New(1, 1, p.Kh, p.Kw, p.PaddedPatches(), tensor.C0)
		patches := p.Patches()
		for kh := 0; kh < p.Kh; kh++ {
			for kw := 0; kw < p.Kw; kw++ {
				for pt := 0; pt < patches; pt++ {
					// The fractal tail beyond patches stays zero, matching
					// what the forward argmax kernels store there.
					for c := 0; c < tensor.C0; c++ {
						if rng.Intn(2) == 1 {
							mask.Set(fp16.One, 0, 0, kh, kw, pt, c)
						}
					}
				}
			}
		}
		grad := tensor.New(1, 1, oh, ow, tensor.C0)
		intFill(grad, 8)
		return []*tensor.Tensor{mask, grad}, nil
	case "avgpool_bwd":
		oh, ow := p.OutDims()
		grad := tensor.New(1, 1, oh, ow, tensor.C0)
		grad.Fill(fp16.FromFloat64(3))
		return []*tensor.Tensor{grad}, nil
	}
	return nil, fmt.Errorf("sched: no gate inputs for kernel family %q", family)
}

// modeCandidates lists the schedule points the search probes around the
// default of lowering mode m, whose resolved band is band, in probe
// order. It is the one definition of the candidate space: the search
// enumerates it and the schedule-space lint sweep (sched tests) walks it.
// Lowerings without an axis reject its candidates with an
// ops.InvalidScheduleError.
func modeCandidates(m string, band int) []ops.ScheduleParams {
	var out []ops.ScheduleParams
	// Band splitting: the default band is the largest that fits, which
	// often means a single band per buffer rotation — halving it buys
	// load/compute overlap at the cost of more issue overhead.
	for _, div := range []int{2, 4, 8} {
		if bb := band / div; bb >= 1 {
			out = append(out, ops.ScheduleParams{Mode: m, Band: bb})
		}
	}
	// Single buffering frees half the UB, letting the band grow.
	out = append(out, ops.ScheduleParams{Mode: m, Buffers: 1})
	if bb := band / 2; bb >= 1 {
		out = append(out, ops.ScheduleParams{Mode: m, Band: bb, Buffers: 1})
	}
	// The remaining axes are cheap single-knob flips.
	out = append(out, ops.ScheduleParams{Mode: m, Saturate: ops.SatNarrow})
	for _, rc := range []int{16, 64} {
		out = append(out, ops.ScheduleParams{Mode: m, RepeatChunk: rc})
	}
	return append(out,
		ops.ScheduleParams{Mode: m, Epilogue: ops.EpiDeferred},
		ops.ScheduleParams{Mode: m, Gather: ops.GatherMTE})
}

// compiledCandidate pairs a compiled candidate plan with its frontier
// entry during the search.
type compiledCandidate struct {
	pl   *ops.Plan
	cand Candidate
}

// init injects the search into internal/ops, so any Spec with
// AutoSchedule set — plan caches, chips, the DSL — dispatches here.
func init() {
	ops.RegisterAutoScheduler(func(kernel string, spec ops.Spec, p isa.ConvParams, tc trace.Ctx) (*ops.Plan, error) {
		res, err := Search(kernel, spec, p, Options{Trace: tc})
		if err != nil {
			return nil, err
		}
		return res.Plan, nil
	})
}
