// The schedule layer: every decision a hand-written planner used to bake
// into its emission code — band size, buffer rotation, mask width, repeat
// coalescing, epilogue placement, which engine gathers, even the lowering
// mode itself — is reified as a comparable ScheduleParams value. The
// zero value always means "the hand-tuned default", so a plan compiled
// with ScheduleParams{} is bit-identical (program, outputs and cycle
// counts) to the pre-schedule-layer lowerings by construction, and the
// autoscheduler (internal/sched) searches the same space the hand
// lowerings live in rather than a parallel one.
package ops

import (
	"errors"
	"fmt"

	"davinci/internal/aicore"
	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/trace"
)

// Saturate values: how wide the reduction sets the vector mask.
const (
	// SatAuto picks the hand-tuned rule: saturate the mask over (Ow, C0)
	// when Sw == 1 (consecutive patches are consecutive in memory, §V-A),
	// 16-lane strided otherwise.
	SatAuto = 0
	// SatFull forces the full-mask row reduction; only legal when Sw == 1.
	SatFull = 1
	// SatNarrow forces the 16-lane strided reduction regardless of stride.
	SatNarrow = 2
)

// Epilogue values: where the Avgpool 1/(Kh*Kw) scale runs.
const (
	// EpiFused scales each output band right after its reduction (the
	// hand-written placement).
	EpiFused = 0
	// EpiDeferred stores raw sums and streams the whole output back
	// through the UB in one trailing scale pass.
	EpiDeferred = 1
)

// Gather values: which engine performs the expansion transform.
const (
	// GatherVector rearranges patches with strided vcopy instructions on
	// the Vector pipe (the hand-written lowering).
	GatherVector = 0
	// GatherMTE stages the input band in L1 and gathers patches with
	// strided DMA bursts on the MTE1 pipe, freeing the Vector pipe for
	// the reduction.
	GatherMTE = 1
)

// ScheduleParams is one point in the schedule space of a kernel lowering.
// It is comparable and hashable (it contains only ints and a string), so
// it can key caches and be compared against a plan's resolved schedule.
//
// The zero value of every field selects the hand-tuned default, so
// ScheduleParams{} reproduces the original hand-written plan exactly.
// Fields a lowering has no use for must be zero; a planner rejects a
// nonzero field it cannot honor with an *InvalidScheduleError, which is
// how the autoscheduler's enumerator learns the edge of the space.
type ScheduleParams struct {
	// Mode selects the lowering mode (the dispatch variant: "standard",
	// "im2col", "expansion", "xysplit", "col2im", "cube"). "" keeps the
	// variant the caller asked for. Every variant of a family shares one
	// observable contract (same inputs, same output tensors), which is
	// what makes the mode itself a searchable axis.
	Mode string
	// Band is the band size in the lowering's native unit — output rows
	// for the direct kernels, patch fractals for the im2col/col2im ones.
	// 0 resolves to the largest band that fits the Unified Buffer.
	Band int
	// Buffers is the number of rotating UB areas (1 or 2). 0 resolves to
	// 2 when a double-buffered band fits, else 1.
	Buffers int
	// Saturate selects the reduction mask width (SatAuto/SatFull/
	// SatNarrow) on the direct-reduction kernels.
	Saturate int
	// RepeatChunk caps the repeat count of one emitted vector instruction
	// on the repeat-coalesced streams (the im2col reductions, the
	// backward mask multiplies, the argmax compares). 0 means the
	// hardware cap (isa.MaxRepeat); smaller chunks trade issue overhead
	// for finer-grained hazard interleaving.
	RepeatChunk int
	// Epilogue places the Avgpool scale pass (EpiFused/EpiDeferred).
	Epilogue int
	// Gather assigns the expansion transform to an engine
	// (GatherVector/GatherMTE) — the pipe-assignment hint.
	Gather int
}

func (sp ScheduleParams) String() string {
	s := fmt.Sprintf("mode=%s band=%d buffers=%d", sp.Mode, sp.Band, sp.Buffers)
	if sp.Saturate != SatAuto {
		s += fmt.Sprintf(" saturate=%d", sp.Saturate)
	}
	if sp.RepeatChunk != 0 {
		s += fmt.Sprintf(" repeat_chunk=%d", sp.RepeatChunk)
	}
	if sp.Epilogue != EpiFused {
		s += " epilogue=deferred"
	}
	if sp.Gather != GatherVector {
		s += " gather=mte"
	}
	return s
}

// InvalidScheduleError reports schedule parameters a lowering cannot
// honor — a band that does not leave room for its buffers, a mask width
// illegal for the stride, a knob the kernel has no use for. It is
// distinct from a capacity failure (errTooLarge): an invalid schedule is
// the search probing outside the space, not a shape problem.
type InvalidScheduleError struct {
	Kernel string
	Reason string
}

func (e *InvalidScheduleError) Error() string {
	return fmt.Sprintf("ops: %s: invalid schedule: %s", e.Kernel, e.Reason)
}

// IsInvalidSchedule reports whether err means the schedule parameters —
// not the shape — were unusable.
func IsInvalidSchedule(err error) bool {
	var e *InvalidScheduleError
	return errors.As(err, &e)
}

func badSchedule(kernel, format string, args ...any) error {
	return &InvalidScheduleError{Kernel: kernel, Reason: fmt.Sprintf(format, args...)}
}

// noKnob rejects nonzero schedule fields a lowering has no use for, so a
// plan's resolved Sched is always canonical (re-compiling it reproduces
// the plan) and the search enumerator gets a crisp edge of the space.
func noKnob(kernel string, value int, knob string) error {
	if value != 0 {
		return badSchedule(kernel, "%s=%d: this lowering has no %s axis", knob, value, knob)
	}
	return nil
}

// resolveBand is the one banding utility every lowering shares: it picks
// (band, buffers) for a monotone per-configuration byte requirement,
// honoring explicit ScheduleParams. need(band, buffers) returns the UB
// bytes the schedule would allocate; it must be non-decreasing in band
// for each buffer count. The default resolution — the largest
// double-buffered band, else the largest single-buffered one — is
// exactly the hand-written try-2-else-1 idiom.
func resolveBand(kernel string, p isa.ConvParams, avail, limit int, sp ScheduleParams, need func(band, buffers int) int) (band, buffers int, err error) {
	choices := []int{2, 1}
	if sp.Buffers != 0 {
		if sp.Buffers < 1 || sp.Buffers > 2 {
			return 0, 0, badSchedule(kernel, "buffers=%d: want 1 or 2", sp.Buffers)
		}
		choices = []int{sp.Buffers}
	}
	if sp.Band < 0 || sp.Band > limit {
		return 0, 0, badSchedule(kernel, "band=%d outside [1, %d]", sp.Band, limit)
	}
	for _, n := range choices {
		if sp.Band > 0 {
			if need(sp.Band, n) <= avail {
				return sp.Band, n, nil
			}
			continue
		}
		if b := maxBand(avail, limit, func(b int) int { return need(b, n) }); b > 0 {
			return b, n, nil
		}
	}
	if sp.Band > 0 || sp.Buffers != 0 {
		return 0, 0, badSchedule(kernel, "band=%d buffers=%v needs more than the %d Unified Buffer bytes available",
			sp.Band, choices, avail)
	}
	return 0, 0, errTooLarge(kernel, p)
}

// resolvedSaturate canonicalizes the mask-width choice a lowering made,
// so a plan's recorded schedule recompiles to the identical plan.
func resolvedSaturate(saturated bool) int {
	if saturated {
		return SatFull
	}
	return SatNarrow
}

// repeatCap resolves the schedule's repeat-chunk cap against the
// hardware repeat field.
func repeatCap(sp ScheduleParams) int {
	if sp.RepeatChunk <= 0 || sp.RepeatChunk > isa.MaxRepeat {
		return isa.MaxRepeat
	}
	return sp.RepeatChunk
}

// resolvedRepeatChunk canonicalizes the repeat-chunk knob: a cap at or
// above the hardware limit changes nothing and records as 0.
func resolvedRepeatChunk(sp ScheduleParams) int {
	if c := repeatCap(sp); c < isa.MaxRepeat {
		return c
	}
	return 0
}

// emitVecChunked is EmitVec with the schedule's repeat-chunk cap: the
// same instruction stream when the cap is the hardware limit, finer
// slices (advancing every operand by its repeat stride) when the
// schedule asks for them. Bit-exact either way — repeats of one vector
// instruction execute in the same order the separate slices would.
func emitVecChunked(prog *cce.Program, sp ScheduleParams, op isa.VecOp, dst, src0, src1 isa.Operand, scalar fp16.Float16, mask isa.Mask, total int) {
	chunk := repeatCap(sp)
	if chunk >= isa.MaxRepeat {
		prog.EmitVec(op, dst, src0, src1, scalar, mask, total)
		return
	}
	adv := func(o isa.Operand, done int) isa.Operand {
		o.Addr += done * o.RepStride * isa.BlockBytes
		return o
	}
	for done := 0; done < total; {
		rep := min(chunk, total-done)
		prog.EmitVec(op, adv(dst, done), adv(src0, done), adv(src1, done), scalar, mask, rep)
		done += rep
	}
}

// emitDeferredScale is the EpiDeferred Avgpool epilogue: stream the raw
// sums already stored in global memory back through a UB staging area,
// multiply by 1/(Kh*Kw), and store them again. Each element is scaled by
// the same single vmuls either way, so fused and deferred epilogues are
// bit-identical.
func emitDeferredScale(prog *cce.Program, p isa.ConvParams, outGM, stageUB, stageBytes, totalBytes int) {
	for off := 0; off < totalBytes; off += stageBytes {
		n := min(stageBytes, totalBytes-off)
		prog.EmitCopy(isa.GM, outGM+off, isa.UB, stageUB, n)
		prog.EmitElementwiseScalar(isa.VMuls, isa.UB, stageUB, stageUB, 0, n/fp16.Bytes, avgScale(p))
		prog.EmitCopy(isa.UB, stageUB, isa.GM, outGM+off, n)
	}
}

// AutoSchedReport is the autoscheduler's account of one search, attached
// to the plan it returned (Plan.Auto) and surfaced as sched_* counters by
// the plan cache.
type AutoSchedReport struct {
	// Kernel is the searched kernel, "family/variant".
	Kernel string
	// Considered counts schedule candidates enumerated beyond the
	// default; Pruned counts those discarded on static bounds alone
	// (never simulated); Confirmed counts candidates whose exact makespan
	// was measured with the cycle oracle.
	Considered, Pruned, Confirmed int
	// BaselineCycles is the default schedule's scheduled makespan
	// (aicore.Time); Cycles is the returned plan's.
	BaselineCycles, Cycles int64
	// Accepted reports that a searched schedule replaced the default
	// after passing the translation-validation gate.
	Accepted bool
	// Rejected carries the reason no searched schedule was adopted when
	// one looked better ("" when the default simply won, or when
	// Accepted).
	Rejected string
	// NoSearch reports that no search ran at all: the kernel exposes no
	// searchable schedule axes, so the default is the only point in the
	// space. Rejected then carries the explicit reason. Distinct from a
	// search that enumerated candidates and kept the default — a no-search
	// compile reports sched_candidates=0 and bumps sched_nosearch, so the
	// downgrade is visible instead of reading like an empty frontier.
	NoSearch bool
	// Params is the schedule of the plan Run executes.
	Params ScheduleParams
	// WallNanos is the host wall-clock time the search spent.
	WallNanos int64
}

// Saved returns the makespan reduction the search bought.
func (r *AutoSchedReport) Saved() int64 { return r.BaselineCycles - r.Cycles }

// Summary renders a one-line report.
func (r *AutoSchedReport) Summary() string {
	switch {
	case r.NoSearch:
		return fmt.Sprintf("autosched: no search (%s); sched_candidates=0", r.Rejected)
	case r.Accepted:
		pct := float64(0)
		if r.BaselineCycles > 0 {
			pct = 100 * float64(r.Saved()) / float64(r.BaselineCycles)
		}
		return fmt.Sprintf("autosched: %d candidates (%d pruned, %d confirmed), %d -> %d cycles (-%.1f%%) via %s",
			r.Considered, r.Pruned, r.Confirmed, r.BaselineCycles, r.Cycles, pct, r.Params)
	case r.Rejected != "":
		return fmt.Sprintf("autosched: default kept (%s), %d candidates", r.Rejected, r.Considered)
	default:
		return fmt.Sprintf("autosched: default wins, %d candidates (%d pruned, %d confirmed)",
			r.Considered, r.Pruned, r.Confirmed)
	}
}

// AutoScheduler searches the schedule space of kernel ("family/variant")
// for (spec, p) and returns the plan to use — the searched winner or the
// default — with Plan.Auto describing the outcome. tc is the tracing
// context the search nests its sched_search/sched_candidate spans under
// (the zero Ctx disables tracing). Implemented by internal/sched and
// injected via RegisterAutoScheduler to keep the dependency one-way
// (sched builds on ops).
type AutoScheduler func(kernel string, spec Spec, p isa.ConvParams, tc trace.Ctx) (*Plan, error)

// autoScheduler is written once from internal/sched's package init,
// before any goroutines compile plans.
var autoScheduler AutoScheduler

// RegisterAutoScheduler installs the schedule-search implementation the
// AutoSchedule Spec flag dispatches to. Called from package init.
func RegisterAutoScheduler(fn AutoScheduler) { autoScheduler = fn }

// autoPlan routes an AutoSchedule compile to the registered search.
func autoPlan(tc trace.Ctx, kernel string, spec Spec, p isa.ConvParams) (*Plan, error) {
	if autoScheduler == nil {
		return nil, fmt.Errorf("ops: %s: Spec.AutoSchedule set but no autoscheduler registered (import davinci/internal/sched)", kernel)
	}
	return autoScheduler(kernel, spec, p, tc)
}

// AutoScheduled compiles kernel ("family/variant") through the registered
// schedule search, regardless of spec.AutoSchedule.
func AutoScheduled(kernel string, spec Spec, p isa.ConvParams) (*Plan, error) {
	return autoPlan(trace.Ctx{}, kernel, spec, p)
}

// attachNoSearchReport marks a plan compiled under an AutoSchedule spec
// whose kernel exposes no searchable schedule axes (the Cube-unit
// convolutions): the default is the only point in the space. The report
// still carries Considered=0 and an explicit per-kernel reason, so the
// plan cache emits sched_candidates=0 plus a sched_nosearch count and
// the downgrade cannot be mistaken for a search that found nothing.
func attachNoSearchReport(pl *Plan, kernel, reason string) {
	t := aicore.Time(pl.Prog, isa.DefaultCostModel(), false)
	pl.Auto = &AutoSchedReport{
		Kernel:         kernel,
		BaselineCycles: t,
		Cycles:         t,
		Params:         pl.Sched,
		NoSearch:       true,
		Rejected:       reason,
	}
}
