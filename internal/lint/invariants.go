package lint

import (
	"fmt"

	"davinci/internal/cce"
	"davinci/internal/isa"
)

// checkInvariants re-validates every instruction through the program's
// multi-error InstrErrors (repeat caps, alignment to isa.BlockBytes,
// buffer placement), then checks constraints per-instruction validation
// cannot see: all-zero vector masks, destructive partial overlap between
// one instruction's source and destination, overlapping same-buffer
// copies, and dead stores.
func checkInvariants(prog *cce.Program) []Diagnostic {
	var diags []Diagnostic
	for _, ie := range prog.InstrErrors() {
		diags = append(diags, Diagnostic{
			Pass: "invariants", Sev: SevError, Index: ie.Index,
			Instr: prog.Instrs[ie.Index].String(), Msg: ie.Err.Error(),
		})
	}
	for idx, in := range prog.Instrs {
		switch v := in.(type) {
		case *isa.VecInstr:
			if v.Mask.Count() == 0 {
				diags = append(diags, Diagnostic{
					Pass: "invariants", Sev: SevError, Index: idx, Instr: in.String(),
					Msg: "vector instruction with an all-zero mask computes nothing",
				})
			}
			diags = append(diags, checkVecOverlap(idx, v)...)
		case *isa.CopyInstr:
			if v.SrcBuf == v.DstBuf {
				src, dst := v.Reads()[0], v.Writes()[0]
				if src.Overlaps(dst) {
					diags = append(diags, Diagnostic{
						Pass: "invariants", Sev: SevError, Index: idx, Instr: in.String(), Region: dst,
						Msg: fmt.Sprintf("copy source %v overlaps destination %v within one instruction", src, dst),
					})
				}
			}
		}
	}
	diags = append(diags, checkDeadStores(prog)...)
	return diags
}

// checkVecOverlap flags a source operand whose span partially overlaps the
// destination span. In-place accumulation — a source operand identical to
// the destination — is the normal reduction idiom (dst = max(src, dst))
// and processes each lane read-before-write, so it stays legal; a partial
// overlap means some lanes read bytes the same instruction already
// overwrote, which depends on the datapath's internal ordering.
func checkVecOverlap(idx int, v *isa.VecInstr) []Diagnostic {
	dst, ok := v.Dst.MaskSpan(v.Mask, v.Repeat)
	if !ok {
		return nil
	}
	var diags []Diagnostic
	check := func(o isa.Operand, name string) {
		if o == v.Dst {
			return
		}
		s, ok := o.MaskSpan(v.Mask, v.Repeat)
		if ok && s.Overlaps(dst) {
			diags = append(diags, Diagnostic{
				Pass: "invariants", Sev: SevError, Index: idx, Instr: v.String(), Region: dst,
				Msg: fmt.Sprintf("%s span %v partially overlaps destination span %v (only exact in-place accumulation is well defined)", name, s, dst),
			})
		}
	}
	if v.Op.IsUnary() || v.Op.IsBinary() {
		check(v.Src0, "src0")
	}
	if v.Op.IsBinary() {
		check(v.Src1, "src1")
	}
	return diags
}

// span is a half-open byte interval used by the dead-store subtraction.
type span struct{ off, end int }

// denseWrite reports whether in writes every byte of its declared write
// region. Declared regions are convex hulls: a strided copy or a strided
// vector destination skips bytes inside its span, so only dense writes may
// kill (fully shadow) an earlier store in the dead-store analysis.
func denseWrite(in isa.Instr) bool {
	switch v := in.(type) {
	case *isa.CopyInstr:
		return v.NBurst == 1 || v.DstGap == 0
	case *isa.VecInstr:
		return v.Mask.Count() == isa.LanesPerRepeat &&
			v.Dst.BlkStride == 1 &&
			(v.Repeat == 1 || v.Dst.RepStride == isa.BlocksPerRepeat)
	case *isa.Im2ColInstr:
		// Mode-1 repeats write consecutive whole fractals.
		return true
	default:
		return false
	}
}

// checkDeadStores flags scratch-pad writes whose entire region is
// overwritten by later instructions before any instruction reads a byte of
// it, and writes never read at all by program end: provably wasted work,
// and in hand-scheduled kernels usually an addressing bug. Global memory
// is exempt — it is the program's output. Fractal-rounded tails are not
// false positives: the subsequent copy-out reads part of the region, which
// marks the whole store live. Only dense writes (denseWrite) shadow
// earlier stores; reads of any shape keep a store live.
func checkDeadStores(prog *cce.Program) []Diagnostic {
	n := len(prog.Instrs)
	reads := make([][]isa.Region, n)
	writes := make([][]isa.Region, n)
	for idx, in := range prog.Instrs {
		// A zero-mask vector op writes nothing; its declared write region
		// would otherwise shadow earlier stores and self-report as dead
		// (the zero mask is already an error from checkInvariants).
		if v, ok := in.(*isa.VecInstr); ok && v.Mask.Count() == 0 {
			continue
		}
		reads[idx] = in.Reads()
		writes[idx] = in.Writes()
	}
	var diags []Diagnostic
	for i := 0; i < n; i++ {
		for _, w := range writes[i] {
			if w.Buf == isa.GM || w.Off >= w.End {
				continue
			}
			remaining := []span{{w.Off, w.End}}
			live, dead, deadAt := false, false, -1
		scan:
			for j := i + 1; j < n; j++ {
				for _, r := range reads[j] {
					if r.Buf == w.Buf && overlapsAny(remaining, r.Off, r.End) {
						live = true
						break scan
					}
				}
				if denseWrite(prog.Instrs[j]) {
					for _, ww := range writes[j] {
						if ww.Buf == w.Buf {
							remaining = subtract(remaining, ww.Off, ww.End)
						}
					}
				}
				if len(remaining) == 0 {
					dead, deadAt = true, j
					break
				}
			}
			switch {
			case dead:
				diags = append(diags, Diagnostic{
					Pass: "invariants", Sev: SevWarning, Index: i, Instr: prog.Instrs[i].String(), Region: w,
					Msg: fmt.Sprintf("dead store: %v is entirely overwritten by instr %d (%s) before any read", w, deadAt, prog.Instrs[deadAt]),
				})
			case !live:
				diags = append(diags, Diagnostic{
					Pass: "invariants", Sev: SevWarning, Index: i, Instr: prog.Instrs[i].String(), Region: w,
					Msg: fmt.Sprintf("dead store: no instruction ever reads %v", w),
				})
			}
		}
	}
	return diags
}

func overlapsAny(spans []span, off, end int) bool {
	for _, s := range spans {
		if s.off < end && off < s.end {
			return true
		}
	}
	return false
}

// subtract removes [off, end) from every span, keeping the remainders.
func subtract(spans []span, off, end int) []span {
	out := make([]span, 0, len(spans))
	for _, s := range spans {
		if s.end <= off || end <= s.off { // disjoint
			out = append(out, s)
			continue
		}
		if s.off < off {
			out = append(out, span{s.off, off})
		}
		if end < s.end {
			out = append(out, span{end, s.end})
		}
	}
	return out
}
