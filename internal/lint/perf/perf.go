// Package perf is the static performance analyzer companion to the
// correctness linter (internal/lint): given a lowered cce.Program and a
// cost model it derives, without executing a single instruction,
//
//   - per-pipe occupancy lower bounds — the busy cycles each pipeline must
//     spend, whose maximum no schedule can beat;
//   - a critical-path upper bound on the makespan through a conservative
//     cross-pipe dependence graph (buffer-granularity data hazards plus
//     flag and barrier edges);
//   - the utilization metrics behind the paper's §V argument: mean vector
//     lane-mask occupancy, the repeat histogram and MaxRepeat split waste,
//     strided-vs-unit block-stride vector work, MTE/Vector/Cube balance,
//     and sync-induced serialization;
//   - perf diagnostics (lint.Diagnostic with Pass "perf"): statically
//     coalescable repeat=1 runs, sub-50% mask occupancy, set/wait pairs
//     that serialize pipes with no intervening work, and dead barriers.
//
// The two bounds bracket the timing simulator: for every program,
//
//	max_p PipeBusy[p]  <=  simulated cycles (aicore.Run)  <=  CritPath.
//
// The upper bound holds because every constraint the simulator's
// scoreboard can impose is dominated by an edge the analyzer includes: the
// scoreboard stalls an instruction on (1) its pipe's previous instruction,
// (2) the latest overlapping write (reads) or access (writes) of each
// region it touches — including the whole-buffer floor produced by history
// folding — and (3) barriers. The analyzer orders (1) identically and
// replaces (2) by the latest access of the whole buffer, which is >= any
// overlap or folded floor; flag edges only add constraints. The same
// argument covers aicore.RunExplicit, whose only cross-pipe constraints
// are the flag and barrier edges. The bound does not cover
// Core.Serialize (which is SerialCycles by construction). The lower bound
// is schedule-free: pipes issue in order, so the makespan is at least the
// busiest pipe's total work.
package perf

import (
	"sort"

	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/lint"
)

// Options configures an analysis.
type Options struct {
	// Cost is the cycle-cost model; nil takes the calibrated default.
	Cost *isa.CostModel
	// Caps is the capacity in bytes of each buffer, used for footprint
	// utilization; the zero value takes the Ascend 910 defaults.
	Caps [isa.NumBufs]int
}

// RepeatBuckets labels the repeat-histogram buckets of VectorMetrics.
var RepeatBuckets = [5]string{"1", "2-15", "16-127", "128-254", "255"}

// VectorMetrics aggregates the Vector Unit's lane and repeat utilization
// (VecInstr only; Col2Im and conversion moves are costed on the vector
// pipe but have no mask or repeat field of interest).
type VectorMetrics struct {
	// Instrs is the number of vector ALU instructions.
	Instrs int
	// Repeats is the total repeat iterations issued.
	Repeats int64
	// LaneSum is the total enabled lanes over all repeats.
	LaneSum int64
	// MeanOccupancy is LaneSum / (Repeats * 128): the fraction of the
	// 128-lane datapath doing useful work per repeat (0 when no repeats).
	MeanOccupancy float64
	// RepeatHist buckets instruction repeat counts per RepeatBuckets.
	RepeatHist [5]int
	// StridedInstrs counts instructions with a non-unit block stride on
	// any operand (they run at the slower gather rate).
	StridedInstrs int
	// StridedCycles and UnitCycles split the vector ALU cycles by rate.
	StridedCycles int64
	UnitCycles    int64
}

// TrafficMetrics aggregates data movement.
type TrafficMetrics struct {
	// BytesIn / BytesOut is global-memory read / write payload.
	BytesIn  int64
	BytesOut int64
	// LocalBytes is the local copy payload (MTE1 and UB-to-UB moves).
	LocalBytes int64
	// Copies and Bursts count copy instructions and their DMA bursts.
	Copies int
	Bursts int64
}

// SyncMetrics aggregates the synchronization cost of the program.
type SyncMetrics struct {
	// Flags counts set_flag plus wait_flag instructions.
	Flags int
	// Barriers counts pipe barriers.
	Barriers int
	// StallCycles is, per pipe, the idle time waits and barriers impose in
	// the minimal-constraint schedule (in-order pipes plus sync edges
	// only, data hazards ignored): the serialization attributable to the
	// sync protocol alone. Barrier stalls count only pipes with work left.
	StallCycles [isa.NumPipes]int64
	// StallTotal sums StallCycles.
	StallTotal int64
}

// Report is the full static performance analysis of one program.
type Report struct {
	Program string
	Instrs  int

	// PipeBusy is each pipe's total instruction cost: a lower bound on the
	// time that pipe is occupied under any schedule.
	PipeBusy [isa.NumPipes]int64
	// PipeInstrs is the instruction count per pipe.
	PipeInstrs [isa.NumPipes]int
	// BusyBound = max over PipeBusy: a lower bound on the makespan.
	BusyBound int64
	// CritPath is the critical-path upper bound on the makespan (see the
	// package comment for the dominance argument).
	CritPath int64
	// SerialCycles is the sum of all instruction costs: the makespan with
	// pipelining disabled (Core.Serialize) and an upper bound on CritPath.
	SerialCycles int64
	// SplitInstrs counts instructions issued at the MaxRepeat cap — each
	// marks a stream the compiler had to split, paying issue cost again.
	SplitInstrs int
	// SplitWaste is the issue cycles respent because of those splits.
	SplitWaste int64
	// Footprint is the highest byte addressed per buffer.
	Footprint [isa.NumBufs]int
	// Caps echoes the capacities the analysis assumed.
	Caps [isa.NumBufs]int

	Vector  VectorMetrics
	Traffic TrafficMetrics
	Sync    SyncMetrics

	// Diags are the perf findings (Pass "perf"), ordered by instruction
	// index like the correctness passes.
	Diags []lint.Diagnostic
}

// Parallelism returns SerialCycles / CritPath: a guaranteed-achievable
// overlap factor (the real schedule is at least this much faster than the
// serialized one). Returns 1 for empty programs.
func (r *Report) Parallelism() float64 {
	if r.CritPath == 0 {
		return 1
	}
	return float64(r.SerialCycles) / float64(r.CritPath)
}

// Analyze statically analyzes prog. It never executes instructions and is
// linear in program size except for the dead-barrier scan, which is
// quadratic and skipped above deadBarrierScanLimit instructions.
func Analyze(prog *cce.Program, opts Options) *Report {
	cost := opts.Cost
	if cost == nil {
		cost = isa.DefaultCostModel()
	}
	var zero [isa.NumBufs]int
	if opts.Caps == zero {
		opts.Caps = buffer.Config{}.Capacities()
	}
	r := &Report{Program: prog.Name, Instrs: len(prog.Instrs), Caps: opts.Caps}
	collect(r, prog, cost)
	r.CritPath = upperBound(prog.Instrs, cost)
	r.Sync.StallCycles, r.Sync.StallTotal = syncStalls(prog.Instrs, cost)
	r.Diags = diagnose(r, prog, cost)
	sort.SliceStable(r.Diags, func(i, j int) bool {
		if r.Diags[i].Index != r.Diags[j].Index {
			return r.Diags[i].Index < r.Diags[j].Index
		}
		return r.Diags[i].Msg < r.Diags[j].Msg
	})
	return r
}

// reach raises each buffer's footprint to the end of every region of rs.
func (r *Report) reach(rs isa.Regions) {
	for i := range rs.Len() {
		if reg := rs.At(i); reg.End > r.Footprint[reg.Buf] {
			r.Footprint[reg.Buf] = reg.End
		}
	}
}

// collect fills the order-independent metrics in one pass.
func collect(r *Report, prog *cce.Program, cost *isa.CostModel) {
	for _, in := range prog.Instrs {
		pipe := in.Pipe()
		c := in.Cycles(cost)
		r.PipeBusy[pipe] += c
		r.PipeInstrs[pipe]++
		r.SerialCycles += c
		r.reach(in.Reads())
		r.reach(in.Writes())
		switch v := in.(type) {
		case *isa.VecInstr:
			r.Vector.Instrs++
			r.Vector.Repeats += int64(v.Repeat)
			r.Vector.LaneSum += int64(v.Mask.Count()) * int64(v.Repeat)
			r.Vector.RepeatHist[repeatBucket(v.Repeat)]++
			if vecStrided(v) {
				r.Vector.StridedInstrs++
				r.Vector.StridedCycles += c
			} else {
				r.Vector.UnitCycles += c
			}
			if v.Repeat == isa.MaxRepeat {
				r.SplitInstrs++
				r.SplitWaste += cost.VecIssue
			}
		case *isa.CopyInstr:
			r.Traffic.Copies++
			r.Traffic.Bursts += int64(v.NBurst)
			switch pipe {
			case isa.PipeMTE2:
				r.Traffic.BytesIn += int64(v.Bytes())
			case isa.PipeMTE3:
				r.Traffic.BytesOut += int64(v.Bytes())
			default:
				r.Traffic.LocalBytes += int64(v.Bytes())
			}
		case *isa.Im2ColInstr:
			if v.Repeat == isa.MaxRepeat {
				r.SplitInstrs++
				r.SplitWaste += cost.MteIssue
			}
		case *isa.Col2ImInstr:
			if v.Repeat == isa.MaxRepeat {
				r.SplitInstrs++
				r.SplitWaste += cost.VecIssue
			}
		case *isa.TransposeInstr:
			if v.Repeat == isa.MaxRepeat {
				r.SplitInstrs++
				r.SplitWaste += cost.MteIssue
			}
		case *isa.SetFlagInstr, *isa.WaitFlagInstr:
			r.Sync.Flags++
		case *isa.BarrierInstr:
			r.Sync.Barriers++
		}
	}
	for _, b := range r.PipeBusy {
		if b > r.BusyBound {
			r.BusyBound = b
		}
	}
	if r.Vector.Repeats > 0 {
		r.Vector.MeanOccupancy = float64(r.Vector.LaneSum) / float64(r.Vector.Repeats*isa.LanesPerRepeat)
	}
}

func repeatBucket(rep int) int {
	switch {
	case rep <= 1:
		return 0
	case rep < 16:
		return 1
	case rep < 128:
		return 2
	case rep < isa.MaxRepeat:
		return 3
	default:
		return 4
	}
}

// vecStrided mirrors VecInstr's cost-model test for the gather rate.
func vecStrided(v *isa.VecInstr) bool {
	if v.Dst.BlkStride > 1 {
		return true
	}
	if (v.Op.IsUnary() || v.Op.IsBinary()) && v.Src0.BlkStride > 1 {
		return true
	}
	return v.Op.IsBinary() && v.Src1.BlkStride > 1
}
