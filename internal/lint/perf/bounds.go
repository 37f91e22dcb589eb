package perf

import "davinci/internal/isa"

// flagKey identifies one counting-flag channel, as in the sync pass.
type flagKey struct {
	src, dst isa.Pipe
	event    int
}

// upperBound computes the critical-path makespan of the conservative
// dependence model: in-order pipes, buffer-granularity data hazards
// (every read waits for the buffer's latest writer; every write also
// waits for its latest reader), barrier joins, and flag edges (the i-th
// wait on a channel waits for the i-th set). Each constraint dominates
// the corresponding scheduler constraint (see the package comment), so
// the result upper-bounds both aicore.Run and aicore.RunExplicit. The
// pass is O(n) using running maxima instead of an explicit graph.
func upperBound(instrs []isa.Instr, cost *isa.CostModel) int64 {
	var pipeEnd [isa.NumPipes]int64
	var bufW, bufR [isa.NumBufs]int64
	var makespan int64
	var tokens map[flagKey][]int64
	for _, in := range instrs {
		pipe := in.Pipe()
		start := pipeEnd[pipe]
		switch v := in.(type) {
		case *isa.BarrierInstr:
			if makespan > start {
				start = makespan
			}
			for _, e := range pipeEnd {
				if e > start {
					start = e
				}
			}
		case *isa.WaitFlagInstr:
			// An unmatched wait is a deadlock the sync pass reports;
			// timing-wise it imposes no edge here.
			k := flagKey{v.SrcPipe, v.DstPipe, v.Event}
			if q := tokens[k]; len(q) > 0 {
				if q[0] > start {
					start = q[0]
				}
				tokens[k] = q[1:]
			}
		default:
			reads, writes := in.Reads(), in.Writes()
			for i := range reads.Len() {
				if t := bufW[reads.At(i).Buf]; t > start {
					start = t
				}
			}
			for i := range writes.Len() {
				w := writes.At(i)
				if t := bufW[w.Buf]; t > start {
					start = t
				}
				if t := bufR[w.Buf]; t > start {
					start = t
				}
			}
		}
		end := start + in.Cycles(cost)
		pipeEnd[pipe] = end
		switch v := in.(type) {
		case *isa.BarrierInstr:
			for i := range pipeEnd {
				pipeEnd[i] = end
			}
		case *isa.SetFlagInstr:
			if tokens == nil {
				tokens = make(map[flagKey][]int64)
			}
			k := flagKey{v.SrcPipe, v.DstPipe, v.Event}
			tokens[k] = append(tokens[k], end)
		default:
			reads, writes := in.Reads(), in.Writes()
			for i := range reads.Len() {
				if b := reads.At(i).Buf; end > bufR[b] {
					bufR[b] = end
				}
			}
			for i := range writes.Len() {
				if b := writes.At(i).Buf; end > bufW[b] {
					bufW[b] = end
				}
			}
		}
		if end > makespan {
			makespan = end
		}
	}
	return makespan
}

// syncStalls schedules the program under the minimal constraint set —
// in-order pipes plus flag and barrier edges, ignoring data hazards — and
// reports the idle time each pipe accumulates at waits and barriers. Data
// hazards can only move start times later, so the blame assignment is the
// serialization the sync protocol alone already imposes. Barrier stalls
// are charged only to pipes that still have instructions after the
// barrier (idling a finished pipe costs nothing).
func syncStalls(instrs []isa.Instr, cost *isa.CostModel) (stalls [isa.NumPipes]int64, total int64) {
	lastIdx := [isa.NumPipes]int{}
	for i := range lastIdx {
		lastIdx[i] = -1
	}
	for i, in := range instrs {
		lastIdx[in.Pipe()] = i
	}
	var pipeEnd [isa.NumPipes]int64
	var makespan int64
	var tokens map[flagKey][]int64
	for idx, in := range instrs {
		pipe := in.Pipe()
		start := pipeEnd[pipe]
		switch v := in.(type) {
		case *isa.BarrierInstr:
			if makespan > start {
				start = makespan
			}
			for _, e := range pipeEnd {
				if e > start {
					start = e
				}
			}
		case *isa.WaitFlagInstr:
			k := flagKey{v.SrcPipe, v.DstPipe, v.Event}
			if q := tokens[k]; len(q) > 0 {
				if q[0] > start {
					start = q[0]
				}
				tokens[k] = q[1:]
			}
			if d := start - pipeEnd[pipe]; d > 0 {
				stalls[pipe] += d
			}
		}
		end := start + in.Cycles(cost)
		switch v := in.(type) {
		case *isa.BarrierInstr:
			for i := range pipeEnd {
				// The issuing pipe idles until the barrier starts; every
				// other pipe idles until it completes.
				until := end
				if isa.Pipe(i) == pipe {
					until = start
				}
				if lastIdx[i] > idx {
					if d := until - pipeEnd[i]; d > 0 {
						stalls[i] += d
					}
				}
				pipeEnd[i] = end
			}
		case *isa.SetFlagInstr:
			if tokens == nil {
				tokens = make(map[flagKey][]int64)
			}
			k := flagKey{v.SrcPipe, v.DstPipe, v.Event}
			tokens[k] = append(tokens[k], end)
			pipeEnd[pipe] = end
		default:
			pipeEnd[pipe] = end
		}
		if end > makespan {
			makespan = end
		}
	}
	for _, s := range stalls {
		total += s
	}
	return stalls, total
}
