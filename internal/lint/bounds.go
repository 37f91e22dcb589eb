package lint

import (
	"fmt"

	"davinci/internal/cce"
	"davinci/internal/isa"
)

// checkBounds verifies that every byte region an instruction touches fits
// its buffer's capacity. Vector operands are measured mask-aware: the span
// ends at the highest enabled lane's block, so a masked tail instruction
// sitting at the end of a buffer is not a false positive, while a full-mask
// instruction there is a genuine overflow.
func checkBounds(prog *cce.Program, caps [isa.NumBufs]int) []Diagnostic {
	var diags []Diagnostic
	for idx, in := range prog.Instrs {
		first, second := accessRegions(in)
		diags = checkRegions(diags, idx, in, first, caps)
		diags = checkRegions(diags, idx, in, second, caps)
	}
	return diags
}

// checkRegions appends to diags a finding for every region of rs, one of
// in's access sets, that starts before its buffer or ends past its
// capacity.
func checkRegions(diags []Diagnostic, idx int, in isa.Instr, rs isa.Regions, caps [isa.NumBufs]int) []Diagnostic {
	for i := range rs.Len() {
		r := rs.At(i)
		if r.Off < 0 {
			diags = append(diags, Diagnostic{
				Pass: "bounds", Sev: SevError, Index: idx, Instr: in.String(), Region: r,
				Msg: fmt.Sprintf("access %v starts before the buffer", r),
			})
			continue
		}
		var cap int
		if r.Buf >= 0 && int(r.Buf) < len(caps) {
			cap = caps[r.Buf]
		}
		if cap > 0 && r.End > cap {
			diags = append(diags, Diagnostic{
				Pass: "bounds", Sev: SevError, Index: idx, Instr: in.String(), Region: r,
				Msg: fmt.Sprintf("access %v exceeds the %d-byte %v capacity by %d bytes", r, cap, r.Buf, r.End-cap),
			})
		}
	}
	return diags
}

// accessRegions returns the byte regions an instruction touches, in two
// sets: the mask-aware spans of a vector instruction (and an empty set),
// or the instruction's own conservative Reads and Writes otherwise.
func accessRegions(in isa.Instr) (isa.Regions, isa.Regions) {
	if v, ok := in.(*isa.VecInstr); ok {
		return v.MaskSpans(), isa.Regions{}
	}
	return in.Reads(), in.Writes()
}
