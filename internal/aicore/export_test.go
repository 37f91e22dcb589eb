package aicore

import (
	"fmt"
	"unsafe"

	"davinci/internal/cce"
	"davinci/internal/isa"
)

// Interpret executes prog on the interpreter (exec), instruction by
// instruction in program order: the oracle the flattened trace, which
// every run executes, is checked against. Its errors name the failing
// instruction the way Run's do.
func (c *Core) Interpret(prog *cce.Program) error {
	for idx, in := range prog.Instrs {
		if err := c.exec(in); err != nil {
			return fmt.Errorf("aicore: %s instr %d (%s): %w", prog.Name, idx, in, err)
		}
	}
	return nil
}

// FlatOps returns the number of primitive ops in a flattened program.
func FlatOps(fp *FlatProgram) int { return len(fp.ops) }

// FlatGathers returns the number of fGather ops in a flattened program.
func FlatGathers(fp *FlatProgram) int {
	return countOps(fp, func(op *flatOp) bool { return op.kind == fGather })
}

// FlatFolds returns the number of fFold ops in a flattened program.
func FlatFolds(fp *FlatProgram) int {
	return countOps(fp, func(op *flatOp) bool { return op.kind == fFold })
}

// FlatStrideMaxFolds returns the number of fFold ops that run
// fp16.MaxFold: dup-led vmax chains whose sources lie at a constant stride.
func FlatStrideMaxFolds(fp *FlatProgram) int {
	return countOps(fp, func(op *flatOp) bool {
		return op.kind == fFold && op.op == isa.VMax && op.dup && op.sStride >= 0
	})
}

// FlatVecOps returns the number of unfused fVec and fVecMasked ops
// applying v in a flattened program.
func FlatVecOps(fp *FlatProgram, v isa.VecOp) int {
	return countOps(fp, func(op *flatOp) bool { return (op.kind == fVec || op.kind == fVecMasked) && op.op == v })
}

func countOps(fp *FlatProgram, match func(*flatOp) bool) int {
	n := 0
	for i := range fp.ops {
		if match(&fp.ops[i]) {
			n++
		}
	}
	return n
}

// FlatOpBytes is the in-memory size of one flattened op.
const FlatOpBytes = unsafe.Sizeof(flatOp{})

// Placement is one instruction's scheduled interval and attributed stall.
type Placement struct {
	Start, End int64
	Stall      Stall
}

// FullScanSchedule places prog's instructions in program order on a
// pipelined scoreboard whose constraint pass scans every hazard history
// in full, as the scoreboard did before it skipped the scans that cannot
// bind: the oracle for Time's walk and Board.StartOf.
func FullScanSchedule(prog *cce.Program, cost *isa.CostModel) []Placement {
	if cost == nil {
		cost = isa.DefaultCostModel()
	}
	b := newBoard(cost, false)
	out := make([]Placement, len(prog.Instrs))
	for idx, in := range prog.Instrs {
		tr := newStallTracker()
		fullScanConstraints(b, in, &tr)
		pipe := in.Pipe()
		start := max(b.pipeFree[pipe], tr.t)
		end := start + in.Cycles(b.cost)
		out[idx] = Placement{Start: start, End: end, Stall: tr.resolve(b.pipeFree[pipe])}
		b.pipeFree[pipe] = end
		if _, isBarrier := in.(*isa.BarrierInstr); isBarrier {
			b.barrierFloor = end
		} else {
			reads, writes := in.Reads(), in.Writes()
			for i := range reads.Len() {
				r := reads.At(i)
				bt := &b.bufs[r.Buf]
				bt.reads = appendAccess(bt.reads, interval{r.Off, r.End, end, idx}, &bt.lastR, &bt.floorR)
			}
			for i := range writes.Len() {
				w := writes.At(i)
				bt := &b.bufs[w.Buf]
				bt.writes = appendAccess(bt.writes, interval{w.Off, w.End, end, idx}, &bt.lastW, &bt.floorW)
			}
		}
		b.cycles = max(b.cycles, end)
	}
	return out
}

// fullScanConstraints is board.constraints without the scan skip.
func fullScanConstraints(b *board, in isa.Instr, tr *stallTracker) {
	tr.propose(b.barrierFloor, StallBarrier, 0, -1)
	if _, isBarrier := in.(*isa.BarrierInstr); isBarrier {
		tr.propose(b.cycles, StallBarrier, 0, -1)
		for _, f := range b.pipeFree {
			tr.propose(f, StallBarrier, 0, -1)
		}
		return
	}
	reads, writes := in.Reads(), in.Writes()
	for i := range reads.Len() { // RAW
		r := reads.At(i)
		bt := &b.bufs[r.Buf]
		t, p := lastOverlap(bt.writes, r)
		tr.propose(t, StallRAW, r.Buf, p)
		tr.propose(bt.floorW, StallRAW, r.Buf, -1)
	}
	for i := range writes.Len() { // WAW and WAR
		w := writes.At(i)
		bt := &b.bufs[w.Buf]
		t, p := lastOverlap(bt.writes, w)
		tr.propose(t, StallWAW, w.Buf, p)
		t, p = lastOverlap(bt.reads, w)
		tr.propose(t, StallWAR, w.Buf, p)
		tr.propose(bt.floorW, StallWAW, w.Buf, -1)
		tr.propose(bt.floorR, StallWAR, w.Buf, -1)
	}
}
