package aicore

import (
	"davinci/internal/cce"
	"davinci/internal/isa"
)

// board is the implicit-sync timing scoreboard: per-pipe in-order issue,
// exact-region data hazards with bounded history, and barrier floors.
// walk drives it for Run, Time and traced plan runs alike, and the static
// schedulers drive it through Board, so every start time they compute is
// identical to what Run would produce — including the conservative
// whole-buffer floors history folding introduces.
type board struct {
	cost         *isa.CostModel
	serialize    bool
	pipeFree     [isa.NumPipes]int64
	barrierFloor int64
	bufs         []bufTimes
	cycles       int64
}

func newBoard(cost *isa.CostModel, serialize bool) *board {
	return &board{cost: cost, serialize: serialize, bufs: make([]bufTimes, isa.NumBufs)}
}

// constraints proposes every start-time constraint the scoreboard imposes
// on in to tr: the standing barrier floor, the all-pipes join for barriers
// (and for every instruction under Serialize), and the RAW/WAW/WAR hazards
// against the recorded access history otherwise. A history scan is
// skipped when it cannot bind (see hazard), so place and startOf pay only
// for the scans that can.
func (b *board) constraints(in isa.Instr, tr *stallTracker) {
	tr.propose(b.barrierFloor, StallBarrier, 0, -1)
	_, isBarrier := in.(*isa.BarrierInstr)
	if isBarrier || b.serialize {
		// Wait for everything issued so far (a barrier join; Serialize
		// imposes the same join before every instruction).
		tr.propose(b.cycles, StallBarrier, 0, -1)
		for _, f := range b.pipeFree {
			tr.propose(f, StallBarrier, 0, -1)
		}
		return
	}
	pipeFree := b.pipeFree[in.Pipe()]
	reads, writes := in.Reads(), in.Writes()
	for i := range reads.Len() { // RAW
		r := reads.At(i)
		bt := &b.bufs[r.Buf]
		tr.hazard(bt.writes, bt.lastW, pipeFree, r, StallRAW)
		tr.propose(bt.floorW, StallRAW, r.Buf, -1)
	}
	for i := range writes.Len() { // WAW and WAR
		w := writes.At(i)
		bt := &b.bufs[w.Buf]
		tr.hazard(bt.writes, bt.lastW, pipeFree, w, StallWAW)
		tr.hazard(bt.reads, bt.lastR, pipeFree, w, StallWAR)
		tr.propose(bt.floorW, StallWAW, w.Buf, -1)
		tr.propose(bt.floorR, StallWAR, w.Buf, -1)
	}
}

// hazard proposes the latest access in list that overlaps r, attributed
// to cause. last bounds every completion time in list, and pipeFree is
// when the issuing pipe frees. The scan is skipped when last is no later
// than the greater of pipeFree and the latest constraint proposed so far,
// and skipping it changes nothing: propose accepts only strictly later
// times, and a constraint at or below pipeFree resolves to pipe-busy with
// the same start time.
func (tr *stallTracker) hazard(list []interval, last, pipeFree int64, r isa.Region, cause StallCause) {
	if last <= max(pipeFree, tr.t) {
		return
	}
	t, p := lastOverlap(list, r)
	tr.propose(t, cause, r.Buf, p)
}

// place issues in as instruction idx: it resolves the start time against
// the collected constraints, commits the access history, and returns the
// scheduled interval plus the attributed stall.
func (b *board) place(in isa.Instr, idx int, tr *stallTracker) (start, end int64, stall Stall) {
	pipe := in.Pipe()
	b.constraints(in, tr)
	start = b.pipeFree[pipe]
	if tr.t > start {
		start = tr.t
	}
	end = start + in.Cycles(b.cost)
	stall = tr.resolve(b.pipeFree[pipe])
	b.pipeFree[pipe] = end
	_, isBarrier := in.(*isa.BarrierInstr)
	if isBarrier {
		// Nothing may start before the barrier completes.
		b.barrierFloor = end
	} else {
		// Record accesses for later hazards.
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
	if end > b.cycles {
		b.cycles = end
	}
	return start, end, stall
}

// startOf peeks at when in would start if issued next, without committing
// anything.
func (b *board) startOf(in isa.Instr) int64 {
	tr := newStallTracker()
	b.constraints(in, &tr)
	start := b.pipeFree[in.Pipe()]
	if tr.t > start {
		start = tr.t
	}
	return start
}

// Time computes, without executing prog, the Stats Run would report for
// it under the implicit-sync scoreboard — the same cycle count, busy time
// and traffic, including the bounded-history folding, because the timing
// model is data-independent. A nil cost model takes the calibrated
// default. The static optimizer (internal/opt) and the schedule search
// use it as their cycle oracle; plans memoize it.
func Time(prog *cce.Program, cost *isa.CostModel, serialize bool) *Stats {
	if cost == nil {
		cost = isa.DefaultCostModel()
	}
	return walk(prog.Instrs, cost, serialize, nil)
}

// TraceUpTo records on a traced core the schedule entries of prog's first
// n instructions: what a run that stops at instruction n leaves in the
// trace, since the walk places instructions in program order. An
// untraced core records nothing.
func (c *Core) TraceUpTo(prog *cce.Program, n int) {
	if c.Trace != nil {
		walk(prog.Instrs[:n], c.Cost, c.Serialize, c.Trace)
	}
}

// walk places instrs on a fresh board in program order and returns their
// Stats: the one timing accounting behind Run, Time and traced runs. tr,
// when non-nil, gets one entry per placed instruction.
func walk(instrs []isa.Instr, cost *isa.CostModel, serialize bool, tr *Trace) *Stats {
	b := newBoard(cost, serialize)
	st := &Stats{}
	if tr != nil {
		tr.grow(len(instrs))
	}
	for idx, in := range instrs {
		t := newStallTracker()
		start, end, stall := b.place(in, idx, &t)
		if tr != nil {
			tr.record(idx, in, start, end, stall)
		}
		pipe := in.Pipe()
		st.PipeBusy[pipe] += end - start
		st.PipeInstrs[pipe]++
		st.Instrs++
		if cp, ok := in.(*isa.CopyInstr); ok {
			switch pipe {
			case isa.PipeMTE2:
				st.BytesIn += int64(cp.Bytes())
			case isa.PipeMTE3:
				st.BytesOut += int64(cp.Bytes())
			}
		}
	}
	st.Cycles = b.cycles
	return st
}

// Board is an incremental timing scoreboard for static schedulers: StartOf
// peeks at when an instruction would start if issued next, Place commits
// it. Issue instructions in the order the candidate program will list
// them and Cycles returns exactly the makespan Run would report for that
// program.
type Board struct{ b *board }

// NewBoard creates an empty scoreboard under the given cost model. A nil
// cost model takes the calibrated default.
func NewBoard(cost *isa.CostModel) *Board {
	if cost == nil {
		cost = isa.DefaultCostModel()
	}
	return &Board{b: newBoard(cost, false)}
}

// StartOf peeks at the start time in would get if issued next.
func (s *Board) StartOf(in isa.Instr) int64 { return s.b.startOf(in) }

// Place issues in as the next instruction and returns its scheduled
// interval. idx is the instruction's index in the candidate program (it
// only feeds stall attribution in traces; any monotone counter works).
func (s *Board) Place(in isa.Instr, idx int) (start, end int64) {
	tr := newStallTracker()
	start, end, _ = s.b.place(in, idx, &tr)
	return start, end
}

// Cycles returns the makespan of everything placed so far.
func (s *Board) Cycles() int64 { return s.b.cycles }
