package perf

import (
	"fmt"

	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/lint"
)

const (
	// coalesceMinRun is the shortest repeat=1 run worth a diagnostic.
	coalesceMinRun = 4
	// occupancyFloor flags programs whose mean lane occupancy is below it.
	occupancyFloor = 0.5
	// occupancyMinRepeats avoids flagging trivially small programs.
	occupancyMinRepeats = 8
	// deadBarrierScanLimit bounds the quadratic dead-barrier scan.
	deadBarrierScanLimit = 20000
)

// diagnose emits the perf findings. Everything is a warning — these are
// optimization opportunities, not contract violations — except the
// self-check that the two bounds did not cross, which can only mean the
// analyzer itself is broken.
func diagnose(r *Report, prog *cce.Program, cost *isa.CostModel) []lint.Diagnostic {
	var diags []lint.Diagnostic
	diags = append(diags, coalesceRuns(prog, cost)...)
	diags = append(diags, pingPongPairs(prog)...)
	diags = append(diags, deadBarriers(prog)...)
	if r.Vector.Repeats >= occupancyMinRepeats && r.Vector.MeanOccupancy < occupancyFloor {
		diags = append(diags, lint.Diagnostic{
			Pass: "perf", Sev: lint.SevWarning, Index: -1,
			Msg: fmt.Sprintf("mean vector lane occupancy %.0f%% (< %.0f%%): most repeats leave the 128-lane datapath idle",
				100*r.Vector.MeanOccupancy, 100*occupancyFloor),
		})
	}
	if r.BusyBound > r.CritPath {
		diags = append(diags, lint.Diagnostic{
			Pass: "perf", Sev: lint.SevError, Index: -1,
			Msg: fmt.Sprintf("internal: occupancy lower bound %d exceeds critical-path bound %d", r.BusyBound, r.CritPath),
		})
	}
	return diags
}

// coalesceRuns finds runs of consecutive repeat=1 vector instructions
// that advance every operand by a uniform block-aligned delta: such a run
// is one instruction with Repeat=len and RepStride=delta/32, the exact
// transformation the paper's §V repeat-parameter argument asks for.
// Fusing is always semantics-preserving because repeats of one
// instruction execute in the same order the separate instructions would.
func coalesceRuns(prog *cce.Program, cost *isa.CostModel) []lint.Diagnostic {
	var diags []lint.Diagnostic
	instrs := prog.Instrs
	emit := func(start, n int) {
		if n < coalesceMinRun {
			return
		}
		v := instrs[start].(*isa.VecInstr)
		diags = append(diags, lint.Diagnostic{
			Pass: "perf", Sev: lint.SevWarning, Index: start, Instr: v.String(),
			Msg: fmt.Sprintf("%d consecutive repeat=1 %v instructions with uniform stride: fuse via the repeat parameter (saves %d issue cycles)",
				n, v.Op, int64(n-1)*cost.VecIssue),
		})
	}
	runStart, runLen := -1, 0
	var delta [3]int
	for i := 0; i < len(instrs); i++ {
		v, ok := instrs[i].(*isa.VecInstr)
		if !ok || v.Repeat != 1 {
			emit(runStart, runLen)
			runStart, runLen = -1, 0
			continue
		}
		if runLen > 0 {
			prev := instrs[i-1].(*isa.VecInstr)
			d, ok := chainDelta(prev, v)
			if ok && (runLen == 1 || d == delta) {
				delta = d
				runLen++
				continue
			}
			emit(runStart, runLen)
		}
		runStart, runLen = i, 1
	}
	emit(runStart, runLen)
	return diags
}

// chainDelta reports whether b can continue a fused run after a and the
// per-operand address advance (in bytes) that a fused RepStride would
// have to reproduce.
func chainDelta(a, b *isa.VecInstr) ([3]int, bool) {
	if a.Op != b.Op || a.Mask != b.Mask || a.Scalar != b.Scalar {
		return [3]int{}, false
	}
	ops := func(v *isa.VecInstr) [3]isa.Operand { return [3]isa.Operand{v.Dst, v.Src0, v.Src1} }
	used := [3]bool{true, a.Op.IsUnary() || a.Op.IsBinary(), a.Op.IsBinary()}
	ao, bo := ops(a), ops(b)
	var delta [3]int
	for k := range ao {
		if !used[k] {
			continue
		}
		if ao[k].Buf != bo[k].Buf || ao[k].BlkStride != bo[k].BlkStride {
			return [3]int{}, false
		}
		d := bo[k].Addr - ao[k].Addr
		if d < 0 || d%isa.BlockBytes != 0 {
			return [3]int{}, false
		}
		delta[k] = d
	}
	return delta, true
}

// pingPongPairs flags set_flag/wait_flag pairs where the wait is the very
// next instruction: the waiting pipe gets no work between the handoff, so
// the pair serializes the two pipes exactly like a barrier between them
// would, without buying any overlap.
func pingPongPairs(prog *cce.Program) []lint.Diagnostic {
	var diags []lint.Diagnostic
	pending := map[flagKey][]int{}
	for i, in := range prog.Instrs {
		switch v := in.(type) {
		case *isa.SetFlagInstr:
			k := flagKey{v.SrcPipe, v.DstPipe, v.Event}
			pending[k] = append(pending[k], i)
		case *isa.WaitFlagInstr:
			k := flagKey{v.SrcPipe, v.DstPipe, v.Event}
			if q := pending[k]; len(q) > 0 {
				setIdx := q[0]
				pending[k] = q[1:]
				if setIdx == i-1 {
					diags = append(diags, lint.Diagnostic{
						Pass: "perf", Sev: lint.SevWarning, Index: i, Instr: in.String(),
						Msg: fmt.Sprintf("wait_flag immediately follows its matching set_flag (instr %d): %v and %v serialize with no overlapping work", setIdx, v.SrcPipe, v.DstPipe),
					})
				}
			}
		}
	}
	return diags
}

// access is one read or write for the dead-barrier scan.
type access struct {
	idx   int
	pipe  isa.Pipe
	write bool
	reg   isa.Region
}

// deadBarriers flags barriers that order no cross-pipe conflicting access
// pair: removing such a barrier cannot change any outcome the scoreboard
// (or a flag protocol) would not already guarantee, so it only costs
// cycles. The scan is quadratic in the access count and skipped for very
// large programs; a program without a barrier returns before collecting
// any access.
func deadBarriers(prog *cce.Program) []lint.Diagnostic {
	if len(prog.Instrs) > deadBarrierScanLimit {
		return nil
	}
	var barriers []int
	for i, in := range prog.Instrs {
		if _, ok := in.(*isa.BarrierInstr); ok {
			barriers = append(barriers, i)
		}
	}
	if len(barriers) == 0 {
		return nil
	}
	var accs []access
	for i, in := range prog.Instrs {
		reads, writes := in.Reads(), in.Writes()
		for k := range reads.Len() {
			accs = append(accs, access{i, in.Pipe(), false, reads.At(k)})
		}
		for k := range writes.Len() {
			accs = append(accs, access{i, in.Pipe(), true, writes.At(k)})
		}
	}
	// A barrier is live iff some cross-pipe conflicting pair spans it.
	live := make(map[int]bool, len(barriers))
	for i, a := range accs {
		for _, b := range accs[i+1:] {
			if a.pipe == b.pipe || (!a.write && !b.write) || !a.reg.Overlaps(b.reg) {
				continue
			}
			lo, hi := a.idx, b.idx
			if lo > hi {
				lo, hi = hi, lo
			}
			for _, bi := range barriers {
				if lo < bi && bi < hi {
					live[bi] = true
				}
			}
		}
	}
	var diags []lint.Diagnostic
	for _, bi := range barriers {
		if !live[bi] {
			diags = append(diags, lint.Diagnostic{
				Pass: "perf", Sev: lint.SevWarning, Index: bi, Instr: prog.Instrs[bi].String(),
				Msg: "barrier orders no cross-pipe dependent accesses: it only costs cycles",
			})
		}
	}
	return diags
}
