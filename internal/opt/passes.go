package opt

import (
	"davinci/internal/cce"
	"davinci/internal/isa"
)

// deadScanLimit bounds the quadratic dead-barrier and dead-move scans,
// matching the perf analyzer's deadBarrierScanLimit so a pass covers
// exactly the programs its diagnostic covers.
const deadScanLimit = 20000

// deadSync removes every set_flag and wait_flag. The optimizer targets
// the implicit-sync scoreboard (aicore.Run), where the hardware orders
// data hazards itself: flags impose no ordering there, execute as
// functional no-ops, and only spend issue cycles on their pipes — every
// one of them is dead, including the "serializing set/wait pair" cases
// the perf analyzer flags.
func deadSync(prog *cce.Program, _ *isa.CostModel) (*cce.Program, int) {
	removed := 0
	for _, in := range prog.Instrs {
		switch in.(type) {
		case *isa.SetFlagInstr, *isa.WaitFlagInstr:
			removed++
		}
	}
	if removed == 0 {
		return nil, 0
	}
	out := derived(prog)
	out.Instrs = make([]isa.Instr, 0, len(prog.Instrs)-removed)
	for _, in := range prog.Instrs {
		switch in.(type) {
		case *isa.SetFlagInstr, *isa.WaitFlagInstr:
			continue
		}
		out.Instrs = append(out.Instrs, in)
	}
	return out, removed
}

// deadBarrier removes barriers that order no cross-pipe conflicting
// access pair — the exact liveness rule behind the perf "dead barrier"
// diagnostic. Removing such a barrier cannot change any outcome the
// scoreboard would not already guarantee; it only costs cycles. Live
// barriers stay: they may be intentional (and removing them is the
// scheduler's job, not a cleanup's).
func deadBarrier(prog *cce.Program, _ *isa.CostModel) (*cce.Program, int) {
	if len(prog.Instrs) > deadScanLimit {
		return nil, 0
	}
	type access struct {
		idx   int
		pipe  isa.Pipe
		write bool
		reg   isa.Region
	}
	var barriers []int
	for i, in := range prog.Instrs {
		if _, ok := in.(*isa.BarrierInstr); ok {
			barriers = append(barriers, i)
		}
	}
	if len(barriers) == 0 {
		return nil, 0
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
	if len(live) == len(barriers) {
		return nil, 0
	}
	out := derived(prog)
	out.Instrs = make([]isa.Instr, 0, len(prog.Instrs))
	removed := 0
	for i, in := range prog.Instrs {
		if _, ok := in.(*isa.BarrierInstr); ok && !live[i] {
			removed++
			continue
		}
		out.Instrs = append(out.Instrs, in)
	}
	return out, removed
}

// deadMove removes vector and copy instructions whose writes land only in
// scratch-pad buffers and are never read by any later instruction: the
// values die on chip. Global memory is the program's observable output
// and is never touched. The scan runs backward so chains of dead moves
// (A feeds only B, B is dead) fall in one pass: a dead instruction's own
// reads do not keep its producers alive.
func deadMove(prog *cce.Program, _ *isa.CostModel) (*cce.Program, int) {
	if len(prog.Instrs) > deadScanLimit {
		return nil, 0
	}
	candidate := func(in isa.Instr) bool {
		switch v := in.(type) {
		case *isa.VecInstr:
			return true
		case *isa.CopyInstr:
			return v.DstBuf != isa.GM
		}
		return false
	}
	// Flags and barriers order, they do not access: a dead-move scan over
	// a program that still has them is sound (removal only relaxes what
	// they ordered), but keep it simple and conservative — any
	// synchronization in flight means this is not straight-line data flow.
	for _, in := range prog.Instrs {
		switch in.(type) {
		case *isa.SetFlagInstr, *isa.WaitFlagInstr, *isa.BarrierInstr:
			return nil, 0
		}
	}
	dead := make([]bool, len(prog.Instrs))
	var future [isa.NumBufs][]isa.Region
	budget := 2_000_000 // region comparisons; the scan is quadratic
	removed := 0
	for i := len(prog.Instrs) - 1; i >= 0; i-- {
		in := prog.Instrs[i]
		if candidate(in) {
			liveWrite := false
			writes := in.Writes()
		scan:
			for k := range writes.Len() {
				w := writes.At(k)
				if w.Buf == isa.GM {
					liveWrite = true
					break
				}
				reads := future[w.Buf]
				if budget -= len(reads); budget < 0 {
					return nil, 0
				}
				for _, r := range reads {
					if w.Off < r.End && r.Off < w.End {
						liveWrite = true
						break scan
					}
				}
			}
			if !liveWrite {
				dead[i] = true
				removed++
				continue
			}
		}
		reads := in.Reads()
		for k := range reads.Len() {
			r := reads.At(k)
			future[r.Buf] = append(future[r.Buf], r)
		}
	}
	if removed == 0 {
		return nil, 0
	}
	out := derived(prog)
	out.Instrs = make([]isa.Instr, 0, len(prog.Instrs)-removed)
	for i, in := range prog.Instrs {
		if !dead[i] {
			out.Instrs = append(out.Instrs, in)
		}
	}
	return out, removed
}

// coalesceCopy fuses adjacent DMA copies between the same buffers into
// one multi-burst copy when the later copy's bursts continue the earlier
// copy's burst/gap pattern. One instruction with n bursts pays the issue
// cost once and a per-burst descriptor cost instead of n issues. Bursts
// of one copy execute in program order, exactly like the separate copies
// did, so the fusion is bit-exact by construction.
func coalesceCopy(prog *cce.Program, _ *isa.CostModel) (*cce.Program, int) {
	out := derived(prog)
	out.Instrs = make([]isa.Instr, 0, len(prog.Instrs))
	applied := 0
	for i := 0; i < len(prog.Instrs); {
		cur, ok := prog.Instrs[i].(*isa.CopyInstr)
		if !ok {
			out.Instrs = append(out.Instrs, prog.Instrs[i])
			i++
			continue
		}
		fused := *cur
		n := 1
		for i+n < len(prog.Instrs) {
			next, ok := prog.Instrs[i+n].(*isa.CopyInstr)
			if !ok {
				break
			}
			merged, ok := fuseCopy(&fused, next)
			if !ok {
				break
			}
			fused = merged
			n++
		}
		if n == 1 {
			out.Instrs = append(out.Instrs, cur)
		} else {
			out.Instrs = append(out.Instrs, &fused)
			applied += n - 1
		}
		i += n
	}
	if applied == 0 {
		return nil, 0
	}
	return out, applied
}

// fuseCopy merges b into a multi-burst continuation of a, when legal: same
// endpoints and burst size, and b's bursts sit exactly one (burst+gap)
// step after a's last burst, with matching gaps on both sides.
func fuseCopy(a, b *isa.CopyInstr) (isa.CopyInstr, bool) {
	if a.SrcBuf != b.SrcBuf || a.DstBuf != b.DstBuf || a.BurstBytes != b.BurstBytes {
		return isa.CopyInstr{}, false
	}
	sg, dg := a.SrcGap, a.DstGap
	if a.NBurst == 1 {
		// A single-burst copy has no gap of its own: the fused gaps are
		// whatever separates the two copies, as long as it is not negative.
		sg = b.SrcAddr - (a.SrcAddr + a.BurstBytes)
		dg = b.DstAddr - (a.DstAddr + a.BurstBytes)
		if sg < 0 || dg < 0 {
			return isa.CopyInstr{}, false
		}
	} else if b.SrcAddr != a.SrcAddr+a.NBurst*(a.BurstBytes+sg) ||
		b.DstAddr != a.DstAddr+a.NBurst*(a.BurstBytes+dg) {
		return isa.CopyInstr{}, false
	}
	if b.NBurst > 1 && (b.SrcGap != sg || b.DstGap != dg) {
		return isa.CopyInstr{}, false
	}
	fused := *a
	fused.SrcGap, fused.DstGap = sg, dg
	fused.NBurst = a.NBurst + b.NBurst
	// A same-buffer copy whose fused source span (gap bytes included)
	// overlaps the fused destination span violates the lint copy-overlap
	// invariant even when every original burst pair was disjoint.
	if fused.SrcBuf == fused.DstBuf && fused.Reads().At(0).Overlaps(fused.Writes().At(0)) {
		return isa.CopyInstr{}, false
	}
	return fused, true
}

// coalesceVec fuses adjacent vector instructions whose operands advance
// by a uniform block-aligned delta into one instruction via the repeat
// parameter — the transformation the paper's §V repeat-parameter argument
// asks for and the perf "coalescable run" diagnostic flags. Repeats of
// one instruction execute in program order over the same lanes the
// separate instructions touched, so the fusion is bit-exact by
// construction, stride-0 reduction addressing included. Runs are chunked
// at isa.MaxRepeat.
func coalesceVec(prog *cce.Program, _ *isa.CostModel) (*cce.Program, int) {
	out := derived(prog)
	out.Instrs = make([]isa.Instr, 0, len(prog.Instrs))
	applied := 0
	for i := 0; i < len(prog.Instrs); {
		cur, ok := prog.Instrs[i].(*isa.VecInstr)
		if !ok {
			out.Instrs = append(out.Instrs, prog.Instrs[i])
			i++
			continue
		}
		fused := *cur
		n := 1
		for i+n < len(prog.Instrs) {
			next, ok := prog.Instrs[i+n].(*isa.VecInstr)
			if !ok {
				break
			}
			merged, ok := fuseVec(&fused, next)
			if !ok {
				break
			}
			fused = merged
			n++
		}
		if n == 1 {
			out.Instrs = append(out.Instrs, cur)
		} else {
			out.Instrs = append(out.Instrs, &fused)
			applied += n - 1
		}
		i += n
	}
	if applied == 0 {
		return nil, 0
	}
	return out, applied
}

// fuseVec merges b into a as additional repeats, when legal: same
// operation, mask and scalar, and every used operand of b starts exactly
// where a's repeat sequence continues, with a compatible repeat stride.
// When a has a single repeat its RepStride is unconstrained (repeat 0
// never advances), so the observed per-operand delta chooses it — the
// same rule as the perf analyzer's chainDelta.
func fuseVec(a *isa.VecInstr, b *isa.VecInstr) (isa.VecInstr, bool) {
	if a.Op != b.Op || a.Mask != b.Mask || a.Scalar != b.Scalar {
		return isa.VecInstr{}, false
	}
	if a.Repeat+b.Repeat > isa.MaxRepeat {
		return isa.VecInstr{}, false
	}
	used := [3]bool{true, a.Op.IsUnary() || a.Op.IsBinary(), a.Op.IsBinary()}
	ao := [3]isa.Operand{a.Dst, a.Src0, a.Src1}
	bo := [3]isa.Operand{b.Dst, b.Src0, b.Src1}
	var strides [3]int
	for k := range ao {
		if !used[k] {
			continue
		}
		if ao[k].Buf != bo[k].Buf || ao[k].BlkStride != bo[k].BlkStride {
			return isa.VecInstr{}, false
		}
		s := ao[k].RepStride
		if a.Repeat == 1 {
			d := bo[k].Addr - ao[k].Addr
			if d < 0 || d%isa.BlockBytes != 0 {
				return isa.VecInstr{}, false
			}
			s = d / isa.BlockBytes
		} else if bo[k].Addr != ao[k].Addr+a.Repeat*s*isa.BlockBytes {
			return isa.VecInstr{}, false
		}
		if b.Repeat > 1 && bo[k].RepStride != s {
			return isa.VecInstr{}, false
		}
		strides[k] = s
	}
	fused := *a
	if used[0] {
		fused.Dst.RepStride = strides[0]
	}
	if used[1] {
		fused.Src0.RepStride = strides[1]
	}
	if used[2] {
		fused.Src1.RepStride = strides[2]
	}
	fused.Repeat = a.Repeat + b.Repeat
	// The lint overlap invariant allows a source operand that is exactly
	// the destination (in-place accumulation) but rejects any partial
	// source/destination span overlap. Two disjoint instructions can fuse
	// into spans that interleave, so re-check the fused form and refuse
	// fusions the verifier would reject.
	dstSpan := fused.Dst.Span(fused.Repeat)
	for _, src := range [2]struct {
		used bool
		op   isa.Operand
	}{{used[1], fused.Src0}, {used[2], fused.Src1}} {
		if src.used && src.op != fused.Dst && src.op.Span(fused.Repeat).Overlaps(dstSpan) {
			return isa.VecInstr{}, false
		}
	}
	return fused, true
}
