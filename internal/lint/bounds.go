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
		for _, r := range accessRegions(in) {
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
	}
	return diags
}

// accessRegions returns the byte regions an instruction touches, using
// mask-aware spans for vector instructions and the instruction's own
// conservative Reads/Writes otherwise.
func accessRegions(in isa.Instr) []isa.Region {
	if v, ok := in.(*isa.VecInstr); ok {
		return v.MaskSpans()
	}
	return append(append([]isa.Region{}, in.Reads()...), in.Writes()...)
}
