package isa

import (
	"fmt"

	"davinci/internal/fp16"
)

// VecOp selects the operation of a vector instruction.
type VecOp int

const (
	// VAdd computes dst = src0 + src1.
	VAdd VecOp = iota
	// VSub computes dst = src0 - src1.
	VSub
	// VMul computes dst = src0 * src1.
	VMul
	// VMax computes dst = max(src0, src1).
	VMax
	// VMin computes dst = min(src0, src1).
	VMin
	// VAdds computes dst = src0 + scalar.
	VAdds
	// VMuls computes dst = src0 * scalar.
	VMuls
	// VDup broadcasts the scalar into dst.
	VDup
	// VCopy computes dst = src0 (data movement inside the UB).
	VCopy
	// VCmpEq computes dst = (src0 == src1) ? 1.0 : 0.0, used to build the
	// argmax mask by comparing each patch with its maximum (paper §V-A).
	VCmpEq
)

var vecOpNames = [...]string{"vadd", "vsub", "vmul", "vmax", "vmin", "vadds", "vmuls", "vector_dup", "vcopy", "vcmp_eq"}

func (o VecOp) String() string {
	if o < 0 || int(o) >= len(vecOpNames) {
		return fmt.Sprintf("VecOp(%d)", int(o))
	}
	return vecOpNames[o]
}

// IsBinary reports whether the op reads Src1.
func (o VecOp) IsBinary() bool {
	switch o {
	case VAdd, VSub, VMul, VMax, VMin, VCmpEq:
		return true
	}
	return false
}

// IsUnary reports whether the op reads Src0 only.
func (o VecOp) IsUnary() bool {
	switch o {
	case VAdds, VMuls, VCopy:
		return true
	}
	return false
}

// Operand addresses a strided sequence of 32-byte blocks in one buffer.
// Within one repeat iteration the instruction touches BlocksPerRepeat
// blocks spaced BlkStride blocks apart; successive repeats advance the base
// by RepStride blocks. Strides are in units of BlockBytes, may be zero
// (reduction/broadcast addressing) but not negative.
type Operand struct {
	Buf       BufID
	Addr      int // byte offset of block 0, repeat 0; must be 32-byte aligned
	BlkStride int // blocks between consecutive blocks of a repeat
	RepStride int // blocks between repeat iterations
}

// Contig returns a contiguous operand (BlkStride 1, RepStride 8).
func Contig(buf BufID, addr int) Operand {
	return Operand{Buf: buf, Addr: addr, BlkStride: 1, RepStride: BlocksPerRepeat}
}

// BlockAddr returns the byte address of block b of repeat r.
func (o Operand) BlockAddr(r, b int) int {
	return o.Addr + (r*o.RepStride+b*o.BlkStride)*BlockBytes
}

// Span returns the conservative byte range touched over `repeat`
// iterations, assuming all 8 blocks may be accessed.
func (o Operand) Span(repeat int) Region {
	end := o.BlockAddr(repeat-1, BlocksPerRepeat-1) + BlockBytes
	return Region{Buf: o.Buf, Off: o.Addr, End: end}
}

// MaskSpan is Span tightened to the highest block holding a lane m
// enables: the bytes a vector instruction under m touches through o. It
// reports false when m enables no lane, or repeat < 1: such an operand
// is not accessed.
func (o Operand) MaskSpan(m Mask, repeat int) (Region, bool) {
	lane := m.highLane()
	if lane < 0 || repeat < 1 {
		return Region{}, false
	}
	end := o.BlockAddr(repeat-1, lane/ElemsPerBlock) + BlockBytes
	return Region{Buf: o.Buf, Off: o.Addr, End: end}, true
}

func (o Operand) validate() error {
	if o.Addr < 0 || o.Addr%BlockBytes != 0 {
		return fmt.Errorf("isa: operand address %d not 32-byte aligned", o.Addr)
	}
	if o.BlkStride < 0 || o.RepStride < 0 {
		return fmt.Errorf("isa: negative operand stride")
	}
	return nil
}

// VecInstr is one Vector Unit instruction. One repeat iteration processes
// up to 128 Float16 lanes selected by Mask; the Repeat parameter reissues
// the instruction with advanced addresses without refetching (paper §III-A,
// §V: "the repetition parameter should be employed, thus removing loops and
// barriers around vector instructions").
type VecInstr struct {
	Op     VecOp
	Dst    Operand
	Src0   Operand // unused for VDup
	Src1   Operand // used by binary ops only
	Scalar fp16.Float16
	Mask   Mask
	Repeat int // 1..MaxRepeat
}

// Pipe returns PipeVector.
func (v *VecInstr) Pipe() Pipe { return PipeVector }

// Cycles charges the fixed issue overhead plus one cycle per repeat: a
// repeat occupies the full 128-lane datapath whether or not the mask
// saturates it — this is exactly the utilization effect the paper exploits.
// Non-unit block strides break the wide 256-byte access into per-block
// transactions, so such repeats run at the slower gather rate; this is why
// transforming the layout with plain vector copies ("Maxpool with
// expansion") costs real vector time (§VI-B).
func (v *VecInstr) Cycles(c *CostModel) int64 {
	perRep := c.VecPerRepeat
	if v.strided() {
		perRep = c.VecStridedPerRepeat
	}
	return c.VecIssue + int64(v.Repeat)*perRep
}

func (v *VecInstr) strided() bool {
	if v.Dst.BlkStride > 1 {
		return true
	}
	if (v.Op.IsUnary() || v.Op.IsBinary()) && v.Src0.BlkStride > 1 {
		return true
	}
	return v.Op.IsBinary() && v.Src1.BlkStride > 1
}

// Reads returns the source spans.
func (v *VecInstr) Reads() []Region {
	switch {
	case v.Op.IsBinary():
		return []Region{v.Src0.Span(v.Repeat), v.Src1.Span(v.Repeat)}
	case v.Op.IsUnary():
		return []Region{v.Src0.Span(v.Repeat)}
	default: // VDup
		return nil
	}
}

// Writes returns the destination span.
func (v *VecInstr) Writes() []Region { return []Region{v.Dst.Span(v.Repeat)} }

// MaskSpans returns the mask span (Operand.MaskSpan) of every operand the
// op accesses, destination first: the bytes the instruction can touch,
// which lint, the interpreter and the flattened trace bound. An all-zero
// mask touches nothing. Reads and Writes stay conservative (eight blocks
// per repeat), since the scoreboard's hazards are defined on them.
func (v *VecInstr) MaskSpans() []Region {
	ops := []Operand{v.Dst, v.Src0, v.Src1}
	switch {
	case v.Op.IsUnary():
		ops = ops[:2]
	case !v.Op.IsBinary():
		ops = ops[:1]
	}
	var rs []Region
	for _, o := range ops {
		if r, ok := o.MaskSpan(v.Mask, v.Repeat); ok {
			rs = append(rs, r)
		}
	}
	return rs
}

// Validate checks structural constraints.
func (v *VecInstr) Validate() error {
	if v.Repeat < 1 || v.Repeat > MaxRepeat {
		return fmt.Errorf("isa: %v repeat %d out of range [1,%d]", v.Op, v.Repeat, MaxRepeat)
	}
	if err := v.Dst.validate(); err != nil {
		return err
	}
	if v.Dst.Buf != UB {
		return fmt.Errorf("isa: vector destination must be UB, got %v", v.Dst.Buf)
	}
	if v.Op.IsBinary() || v.Op.IsUnary() {
		if err := v.Src0.validate(); err != nil {
			return err
		}
		if v.Src0.Buf != UB {
			return fmt.Errorf("isa: vector source must be UB, got %v", v.Src0.Buf)
		}
	}
	if v.Op.IsBinary() {
		if err := v.Src1.validate(); err != nil {
			return err
		}
		if v.Src1.Buf != UB {
			return fmt.Errorf("isa: vector source must be UB, got %v", v.Src1.Buf)
		}
	}
	return nil
}

func (v *VecInstr) String() string {
	return fmt.Sprintf("%v rpt=%d mask=%d dst=%v+%d", v.Op, v.Repeat, v.Mask.Count(), v.Dst.Buf, v.Dst.Addr)
}
