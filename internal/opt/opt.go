// Package opt is a static, semantics-preserving optimizer over
// cce.Program: the acting counterpart of the static performance analyzer
// (internal/lint/perf), and the concrete stepping stone to the roadmap's
// autoscheduler. Where the analyzer names the waste — coalescable repeat=1
// runs, serializing set/wait pairs, dead barriers — the optimizer
// discharges it, justified by the same dependence facts the lint hazard
// pass builds (internal/depgraph) and gated by the same cycle oracle the
// simulator uses (aicore.Time).
//
// The pass pipeline, in order:
//
//	dead-sync       remove every set_flag/wait_flag: the optimizer targets
//	                the implicit-sync scoreboard (aicore.Run), where flags
//	                carry no ordering and only cost issue cycles
//	dead-barrier    remove barriers that order no cross-pipe conflicting
//	                access pair (the perf "dead barrier" diagnostic)
//	dead-move       remove writes to scratch-pad buffers no later
//	                instruction reads (global memory is observable output
//	                and never touched)
//	coalesce-copy   fuse adjacent DMA copies whose bursts continue a
//	                uniform gap pattern into one multi-burst copy
//	coalesce-vec    fuse adjacent vector instructions whose operands
//	                advance by a uniform block-aligned delta via the repeat
//	                parameter (the paper's §V transformation, and the perf
//	                "coalescable run" diagnostic)
//	reschedule      level 2 only: dependence-respecting list rescheduling
//	                that reorders non-conflicting instructions to overlap
//	                pipes (see reschedule.go)
//
// Every pass must not increase the scheduled makespan (aicore.Time) or it
// is discarded wholesale; the surviving program then passes the
// translation-validation gate (see Validate) or the baseline is returned
// unchanged. Rewrites are bit-exact by construction — repeats of one
// vector instruction and bursts of one copy execute in the same order the
// separate instructions would — and the validator re-proves it per
// program anyway, so a bug here surfaces as a rejected optimization, not
// a wrong answer.
package opt

import (
	"fmt"
	"time"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/depgraph"
	"davinci/internal/isa"
)

// Level selects how aggressively Optimize rewrites.
type Level int

const (
	// LevelNone disables the optimizer: the program is returned untouched.
	LevelNone Level = 0
	// LevelRewrite runs the local cleanup and coalescing passes
	// (dead-sync, dead-barrier, dead-move, coalesce-copy, coalesce-vec).
	LevelRewrite Level = 1
	// LevelSchedule adds dependence-respecting list rescheduling.
	LevelSchedule Level = 2
)

func (l Level) String() string {
	switch l {
	case LevelNone:
		return "O0"
	case LevelRewrite:
		return "O1"
	case LevelSchedule:
		return "O2"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Options configures one optimization.
type Options struct {
	// Level selects the pass pipeline; LevelNone returns the input.
	Level Level
	// Cost is the cycle oracle's cost model; nil takes the calibrated
	// default (the model every plan is timed under).
	Cost *isa.CostModel
	// Buffers are the core capacities the program was emitted against:
	// the validation gate lints against them and replays both programs on
	// cores of this configuration. Zero values take the Ascend 910
	// defaults.
	Buffers buffer.Config
	// ConflictBudget caps the region-pair comparisons the O2 rescheduling
	// pass may spend building the conflict graph (depgraph.Conflicts);
	// 0 takes the default. Exhausting it skips the pass and records the
	// typed reason in Result.SkippedReschedule.
	ConflictBudget int
}

// Rewrite reports what one pass did.
type Rewrite struct {
	// Pass names the pass ("coalesce-vec", ...).
	Pass string
	// Applied counts individual rewrites (instructions fused, removed or
	// moved).
	Applied int
	// Removed is the net instruction-count reduction.
	Removed int
	// Saved is the scheduled-makespan reduction the pass bought, under
	// the cycle oracle.
	Saved int64
	// StartNanos/EndNanos is the host wall-clock window the pass ran in
	// (Unix nanoseconds, including its cycle-gate timing call). The plan
	// cache replays these windows as opt_pass trace spans after the
	// compile returns.
	StartNanos, EndNanos int64
}

func (r Rewrite) String() string {
	return fmt.Sprintf("%s: %d rewrites, -%d instrs, -%d cycles", r.Pass, r.Applied, r.Removed, r.Saved)
}

// Result is the outcome of one Optimize call.
type Result struct {
	// Prog is the program to run: the optimized program when the
	// validation gate passed, the untouched baseline otherwise.
	Prog *cce.Program
	// Level echoes the requested level.
	Level Level
	// Rewrites lists what each applied pass did, in pipeline order.
	// Passes that found nothing (or were discarded by the cycle gate) do
	// not appear.
	Rewrites []Rewrite
	// BaselineInstrs/BaselineCycles describe the input program;
	// Instrs/Cycles describe Prog. Cycles is the exact implicit-sync
	// makespan (aicore.Time), identical to what Run reports.
	BaselineInstrs int
	Instrs         int
	BaselineCycles int64
	Cycles         int64
	// Validated reports that the translation-validation gate ran and
	// passed (trivially true when no pass changed the program).
	Validated bool
	// Rejected carries the gate's reason when validation failed; Prog is
	// then the baseline.
	Rejected string
	// SkippedReschedule carries the typed reason the O2 rescheduling pass
	// never analyzed the program: the depgraph.Conflicts region-pair scan
	// exhausted its comparison budget. nil when the pass ran (or was not
	// requested). Surfaced so a silently-kept program order is visible in
	// optimizer reports and the depgraph_budget_exhausted counter instead
	// of masquerading as "no improvement found".
	SkippedReschedule *depgraph.BudgetError
	// StartNanos/EndNanos is the host wall-clock window of the whole
	// Optimize call (Unix nanoseconds), replayed as the opt_pipeline
	// trace span.
	StartNanos, EndNanos int64
}

// Saved returns the total makespan reduction.
func (r *Result) Saved() int64 { return r.BaselineCycles - r.Cycles }

// Changed reports whether Prog differs from the baseline.
func (r *Result) Changed() bool { return len(r.Rewrites) > 0 && r.Rejected == "" }

// Summary renders a one-line report ("O1: 154 rewrites, -9856 cycles
// (12%)" or "O1: no rewrites").
func (r *Result) Summary() string {
	if r.Rejected != "" {
		return fmt.Sprintf("%v: rejected (%s), baseline kept", r.Level, r.Rejected)
	}
	if len(r.Rewrites) == 0 {
		if r.SkippedReschedule != nil {
			return fmt.Sprintf("%v: no rewrites; rescheduling skipped (%v)", r.Level, r.SkippedReschedule)
		}
		return fmt.Sprintf("%v: no rewrites", r.Level)
	}
	applied := 0
	for _, rw := range r.Rewrites {
		applied += rw.Applied
	}
	pct := float64(0)
	if r.BaselineCycles > 0 {
		pct = 100 * float64(r.Saved()) / float64(r.BaselineCycles)
	}
	s := fmt.Sprintf("%v: %d rewrites, %d -> %d instrs, %d -> %d cycles (-%.1f%%)",
		r.Level, applied, r.BaselineInstrs, r.Instrs, r.BaselineCycles, r.Cycles, pct)
	if r.SkippedReschedule != nil {
		s += fmt.Sprintf("; rescheduling skipped (%v)", r.SkippedReschedule)
	}
	return s
}

// pass is one rewrite: it returns the rewritten program and the number of
// individual rewrites, or (nil, 0) when it found nothing.
type pass struct {
	name string
	run  func(*cce.Program, *isa.CostModel) (*cce.Program, int)
}

func pipeline(opts Options, res *Result) []pass {
	ps := []pass{
		{"dead-sync", deadSync},
		{"dead-barrier", deadBarrier},
		{"dead-move", deadMove},
		{"coalesce-copy", coalesceCopy},
		{"coalesce-vec", coalesceVec},
	}
	if opts.Level >= LevelSchedule {
		budget := opts.ConflictBudget
		if budget <= 0 {
			budget = rescheduleBudget
		}
		// Rescheduling moves independent work together, which can create
		// new adjacent coalescable runs — run the coalescers once more so
		// an optimized program never carries a fusable run it could have
		// discharged. A conflict-scan budget exhaustion is recorded on the
		// result rather than silently passing for "nothing to move".
		ps = append(ps,
			pass{"reschedule", func(prog *cce.Program, cost *isa.CostModel) (*cce.Program, int) {
				out, moved, berr := reschedule(prog, cost, budget)
				if berr != nil {
					res.SkippedReschedule = berr
				}
				return out, moved
			}},
			pass{"coalesce-copy", coalesceCopy},
			pass{"coalesce-vec", coalesceVec},
		)
	}
	return ps
}

// Optimize rewrites prog at the requested level and translation-validates
// the result. It never fails: when a pass or the final gate cannot prove
// an improvement safe, the baseline program comes back with the reason in
// Rejected. The input program must already be valid (cce.Validate); it is
// never mutated — every pass builds a fresh instruction slice.
func Optimize(prog *cce.Program, opts Options) *Result {
	cost := opts.Cost
	if cost == nil {
		cost = isa.DefaultCostModel()
	}
	base := aicore.Time(prog, cost, false).Cycles
	res := &Result{
		Prog:           prog,
		Level:          opts.Level,
		BaselineInstrs: len(prog.Instrs),
		Instrs:         len(prog.Instrs),
		BaselineCycles: base,
		Cycles:         base,
		StartNanos:     time.Now().UnixNano(),
	}
	defer func() { res.EndNanos = time.Now().UnixNano() }()
	if opts.Level <= LevelNone || len(prog.Instrs) == 0 {
		res.Validated = true
		return res
	}

	cur, curCycles := prog, base
	for _, p := range pipeline(opts, res) {
		passStart := time.Now().UnixNano()
		next, applied := p.run(cur, cost)
		if next == nil || applied == 0 {
			continue
		}
		nextCycles := aicore.Time(next, cost, false).Cycles
		if nextCycles > curCycles {
			// The rewrite is legal but the schedule got worse (coarser
			// hazard granularity can delay a consumer): discard the pass.
			continue
		}
		res.Rewrites = append(res.Rewrites, Rewrite{
			Pass:       p.name,
			Applied:    applied,
			Removed:    len(cur.Instrs) - len(next.Instrs),
			Saved:      curCycles - nextCycles,
			StartNanos: passStart,
			EndNanos:   time.Now().UnixNano(),
		})
		cur, curCycles = next, nextCycles
	}
	if len(res.Rewrites) == 0 {
		res.Validated = true
		return res
	}

	if reason := Validate(prog, cur, opts); reason != "" {
		res.Rejected = reason
		res.Rewrites = nil
		return res
	}
	res.Prog = cur
	res.Instrs = len(cur.Instrs)
	res.Cycles = curCycles
	res.Validated = true
	return res
}

// derived returns an empty program carrying over prog's name.
func derived(prog *cce.Program) *cce.Program {
	return &cce.Program{Name: prog.Name}
}
