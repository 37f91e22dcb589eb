package aicore

import (
	"encoding/binary"
	"fmt"
	"math"

	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/scu"
)

// flatKind selects the primitive a flatOp performs.
type flatKind uint8

const (
	// fInstr falls back to generic execution of the original instruction.
	fInstr flatKind = iota
	// fMove copies n bytes (memmove semantics, like the burst copies it
	// replaces; only emitted when that matches the instruction order).
	fMove
	// fGather copies rows n-byte rows between distinct buffers, row r from
	// src+r*sStride to dst+r*dStride, in row order: the equal-length moves
	// of one instruction (Im2Col rows, strided bursts) in a single op.
	fGather
	// fZero clears n bytes.
	fZero
	// fVec applies an element-wise vector op to n contiguous lanes.
	fVec
	// fVecMasked applies a vector op to one 16-lane block under a mask.
	fVecMasked
	// fAcc accumulates dst += src over n contiguous lanes (Col2Im merge).
	fAcc
	// fCvt converts n float32 elements to Float16 (L0C -> UB move).
	fCvt
	// fFold runs a vmax reduction chain in one pass (fp16.MaxFold): n
	// lanes at dst start at scalar, then for each of rows sources, source s
	// at src+s*sStride, dst = max(source, dst). Its member ops, unfused,
	// are FlatProgram.members[src1 : src1+rows+1].
	fFold
)

// flatOp is one primitive data operation of a flattened program. Byte
// offsets are resolved; n counts lanes for fVec/fVecMasked/fAcc/fCvt/fFold
// and bytes for fMove/fZero/fGather (per row). Every plan is flattened on its
// first run, so the struct is kept small: fInstr finds its instruction
// through idx rather than holding it.
type flatOp struct {
	kind   flatKind
	scalar fp16.Float16
	msk16  uint16 // fVecMasked: the block's 16 mask bits
	op     isa.VecOp
	dBuf   isa.BufID
	sBuf   isa.BufID
	s1Buf  isa.BufID
	dst    int
	src    int
	src1   int
	n      int
	// fGather: the row count and the per-row destination and source
	// strides in bytes; fFold: the source count and stride.
	rows, dStride, sStride int
	idx                    int // originating instruction index
}

// FlatProgram is a pre-flattened functional execution trace of a program:
// instruction decode, lane masking, repeat/block address arithmetic and the
// SCU's positional walk are resolved once into a linear list of primitive
// data operations, with adjacent operations coalesced whenever doing so
// preserves the exact elementary load/op/store order, and vmax reduction
// chains fused whenever every lane keeps its exact sequence of operations
// (foldChains). Executing the trace is bit-identical to interpreting the
// program instruction by instruction, but amortizes all per-lane
// bookkeeping — which is what makes plan runs cheap. Every program runs
// this way (Run, plans, RunExplicit); the interpreter (exec) remains
// only as the fallback for instructions the trace does not resolve.
// Flattening never affects timing: cycle counts come from the data-free
// walk of the program (Time), which plans memoize.
type FlatProgram struct {
	prog *cce.Program
	ops  []flatOp
	// members holds the ops each fFold replaced, in order.
	members []flatOp
}

// Flatten builds the functional trace of prog. It depends only on the
// instruction stream, so one FlatProgram may be replayed on any core whose
// buffers fit the program's footprint.
func Flatten(prog *cce.Program) *FlatProgram {
	fp := &FlatProgram{prog: prog}
	for idx, in := range prog.Instrs {
		switch v := in.(type) {
		case *isa.VecInstr:
			fp.flattenVec(idx, v)
		case *isa.CopyInstr:
			fp.flattenCopy(idx, v)
		case *isa.ConvCopyInstr:
			fp.ops = append(fp.ops, flatOp{
				kind: fCvt, dBuf: isa.UB, sBuf: isa.L0C,
				dst: v.DstAddr, src: v.SrcAddr, n: v.Elems, idx: idx,
			})
		case *isa.Im2ColInstr:
			fp.flattenIm2Col(idx, v)
		case *isa.Col2ImInstr:
			fp.flattenCol2Im(idx, v)
		case *isa.ScalarInstr, *isa.BarrierInstr, *isa.SetFlagInstr, *isa.WaitFlagInstr:
			// Functional no-ops: synchronization shapes the schedule, not
			// the data, and the schedule comes from Time.
		default:
			fp.fallback(idx)
		}
	}
	fp.foldChains()
	return fp
}

func (fp *FlatProgram) fallback(idx int) {
	fp.ops = append(fp.ops, flatOp{kind: fInstr, idx: idx})
}

// maskBlock extracts the 16 mask bits covering block b's lanes.
func maskBlock(m isa.Mask, b int) uint16 {
	return uint16(m[b>>2] >> uint((b&3)*16))
}

// flattenVec expands a vector instruction block by block, in repeat order.
// Fully-masked blocks become fVec ops and merge with a contiguous
// predecessor: a merged tight loop executes the identical sequence of
// elementary load/op/store steps, so coalescing is always safe even for
// reduction-style (overlapping or in-place) addressing. Partially masked
// blocks stay per-block; fully disabled blocks are dropped.
func (fp *FlatProgram) flattenVec(idx int, v *isa.VecInstr) {
	unary, binary := v.Op.IsUnary(), v.Op.IsBinary()
	for r := 0; r < v.Repeat; r++ {
		for b := 0; b < isa.BlocksPerRepeat; b++ {
			sub := maskBlock(v.Mask, b)
			if sub == 0 {
				continue
			}
			op := flatOp{
				kind: fVec, op: v.Op,
				dBuf: v.Dst.Buf, dst: v.Dst.BlockAddr(r, b),
				n: isa.ElemsPerBlock, scalar: v.Scalar, idx: idx,
			}
			if unary || binary {
				op.sBuf = v.Src0.Buf
				op.src = v.Src0.BlockAddr(r, b)
			}
			if binary {
				op.s1Buf = v.Src1.Buf
				op.src1 = v.Src1.BlockAddr(r, b)
			}
			if sub != 0xffff {
				op.kind = fVecMasked
				op.msk16 = sub
				fp.ops = append(fp.ops, op)
				continue
			}
			if ln := len(fp.ops); ln > 0 {
				prev := &fp.ops[ln-1]
				if prev.kind == fVec && prev.op == v.Op && prev.scalar == v.Scalar &&
					prev.dBuf == op.dBuf && prev.dst+prev.n*fp16.Bytes == op.dst &&
					(!(unary || binary) || (prev.sBuf == op.sBuf && prev.src+prev.n*fp16.Bytes == op.src)) &&
					(!binary || (prev.s1Buf == op.s1Buf && prev.src1+prev.n*fp16.Bytes == op.src1)) {
					prev.n += isa.ElemsPerBlock
					continue
				}
			}
			fp.ops = append(fp.ops, op)
		}
	}
}

// appendMove emits an n-byte copy, merging it into its predecessor when
// the merged op performs the same copies in the same order:
//   - a contiguous move grows while the merged source and destination
//     ranges stay disjoint — a larger memmove must not observe bytes an
//     earlier burst wrote;
//   - equal-length moves of one instruction between distinct buffers at
//     constant source and destination strides fold into an fGather. Its
//     first and last rows bound all the others, so it is bounds-checked
//     once, before any row moves — like the interpreter's check of the
//     whole instruction.
func (fp *FlatProgram) appendMove(idx int, dBuf, sBuf isa.BufID, dst, src, n int) {
	if ln := len(fp.ops); ln > 0 {
		prev := &fp.ops[ln-1]
		if prev.dBuf == dBuf && prev.sBuf == sBuf {
			switch {
			case prev.kind == fMove && prev.dst+prev.n == dst && prev.src+prev.n == src:
				mn := prev.n + n
				if dBuf != sBuf || prev.dst+mn <= prev.src || prev.src+mn <= prev.dst {
					prev.n = mn
					return
				}
			case prev.kind == fMove && prev.idx == idx && prev.n == n && dBuf != sBuf:
				prev.kind, prev.rows = fGather, 2
				prev.dStride, prev.sStride = dst-prev.dst, src-prev.src
				return
			case prev.kind == fGather && prev.idx == idx && prev.n == n &&
				dst == prev.dst+prev.rows*prev.dStride && src == prev.src+prev.rows*prev.sStride:
				prev.rows++
				return
			}
		}
	}
	fp.ops = append(fp.ops, flatOp{kind: fMove, dBuf: dBuf, sBuf: sBuf, dst: dst, src: src, n: n, idx: idx})
}

func (fp *FlatProgram) appendZero(idx int, dBuf isa.BufID, dst, n int) {
	if ln := len(fp.ops); ln > 0 {
		prev := &fp.ops[ln-1]
		if prev.kind == fZero && prev.dBuf == dBuf && prev.dst+prev.n == dst {
			prev.n += n
			return
		}
	}
	fp.ops = append(fp.ops, flatOp{kind: fZero, dBuf: dBuf, dst: dst, n: n, idx: idx})
}

func (fp *FlatProgram) flattenCopy(idx int, m *isa.CopyInstr) {
	sOff, dOff := m.SrcAddr, m.DstAddr
	for b := 0; b < m.NBurst; b++ {
		fp.appendMove(idx, m.DstBuf, m.SrcBuf, dOff, sOff, m.BurstBytes)
		sOff += m.BurstBytes + m.SrcGap
		dOff += m.BurstBytes + m.DstGap
	}
}

// flattenIm2Col resolves the SCU's positional walk into plain 32-byte row
// moves and pad zeroes. Any condition the interpreter would reject at run
// time falls back to the original instruction so the error surfaces
// identically.
func (fp *FlatProgram) flattenIm2Col(idx int, im *isa.Im2ColInstr) {
	start := len(fp.ops)
	patches := im.P.Patches()
	rows := im.EffRows()
	c1, xk, yk, patch0 := im.C1Idx, im.Xk, im.Yk, im.Patch0
	const rowBytes = isa.FractalC0 * fp16.Bytes

	for f := 0; f < im.Repeat; f++ {
		fracBase := im.DstAddr + f*isa.FractalBytes
		for row := 0; row < isa.FractalPatches; row++ {
			rowAddr := fracBase + row*rowBytes
			patch := patch0 + row
			if patch >= patches {
				fp.appendZero(idx, im.DstBuf, rowAddr, rowBytes)
				continue
			}
			h, w, pad := scu.SourceCoord(im.P, patch, xk, yk)
			if pad {
				fp.appendZero(idx, im.DstBuf, rowAddr, rowBytes)
				continue
			}
			if h < im.RowBase || h >= im.RowBase+rows {
				fp.ops = fp.ops[:start]
				fp.fallback(idx)
				return
			}
			srcOff := im.SrcAddr + ((c1*rows+h-im.RowBase)*im.P.Iw+w)*rowBytes
			fp.appendMove(idx, im.DstBuf, im.SrcBuf, rowAddr, srcOff, rowBytes)
		}
		if im.RepeatMode == isa.Im2ColRepeatPatches {
			patch0 += isa.FractalPatches
			if patch0 >= im.P.PaddedPatches() {
				patch0 = 0
				c1, xk, yk = scu.KernelStep(im.P, c1, xk, yk)
			}
		} else {
			c1, xk, yk = scu.KernelStep(im.P, c1, xk, yk)
		}
		if c1 >= im.C1Len && f != im.Repeat-1 {
			fp.ops = fp.ops[:start]
			fp.fallback(idx)
			return
		}
	}
}

// appendAcc emits a 16-lane accumulate, merging contiguous rows; a merged
// loop runs the identical read-add-write sequence, so merging is
// unconditionally order-preserving.
func (fp *FlatProgram) appendAcc(idx int, dBuf, sBuf isa.BufID, dst, src int) {
	if ln := len(fp.ops); ln > 0 {
		prev := &fp.ops[ln-1]
		if prev.kind == fAcc && prev.dBuf == dBuf && prev.sBuf == sBuf &&
			prev.dst+prev.n*fp16.Bytes == dst && prev.src+prev.n*fp16.Bytes == src {
			prev.n += isa.FractalC0
			return
		}
	}
	fp.ops = append(fp.ops, flatOp{kind: fAcc, dBuf: dBuf, sBuf: sBuf, dst: dst, src: src, n: isa.FractalC0, idx: idx})
}

func (fp *FlatProgram) flattenCol2Im(idx int, ci *isa.Col2ImInstr) {
	start := len(fp.ops)
	patches := ci.P.Patches()
	patch0 := ci.Patch0
	rows := ci.EffRows()
	const rowBytes = isa.FractalC0 * fp16.Bytes

	for f := 0; f < ci.Repeat; f++ {
		fracBase := ci.SrcAddr + f*isa.FractalBytes
		for row := 0; row < isa.FractalPatches; row++ {
			patch := patch0 + row
			if patch >= patches {
				continue
			}
			h, w, pad := scu.SourceCoord(ci.P, patch, ci.Xk, ci.Yk)
			if pad {
				continue
			}
			if h < ci.RowBase || h >= ci.RowBase+rows {
				fp.ops = fp.ops[:start]
				fp.fallback(idx)
				return
			}
			rowAddr := fracBase + row*rowBytes
			dstOff := ci.DstAddr + ((ci.C1Idx*rows+h-ci.RowBase)*ci.P.Iw+w)*rowBytes
			fp.appendAcc(idx, ci.DstBuf, ci.SrcBuf, dstOff, rowAddr)
		}
		patch0 += isa.FractalPatches
	}
}

// foldChains replaces each vmax reduction chain of the trace with one
// fFold op. A chain is a full-mask vector_dup of a range followed by
// k >= 2 full-mask vmax ops of the form dst = max(src_s, dst) over that
// same range, whose sources sit at a constant stride >= 0 and do not
// overlap it: the Im2col Maxpool reduction, Kh*Kw passes over one band.
// Each lane goes through the same ops with the same operands in the same
// order fused or not, so the fold is bit-identical. The members move to
// fp.members, so a fold whose bounds fail runs them instead.
func (fp *FlatProgram) foldChains() {
	ops := fp.ops
	fp.ops = ops[:0] // compacts in place: a fold's members are copied out first
	for i := 0; i < len(ops); {
		k := chainLen(ops[i:])
		if k < 2 {
			fp.ops = append(fp.ops, ops[i])
			i++
			continue
		}
		dup, first := ops[i], ops[i+1]
		fold := flatOp{
			kind: fFold, scalar: dup.scalar,
			dBuf: dup.dBuf, dst: dup.dst, n: dup.n,
			sBuf: first.sBuf, src: first.src, rows: k, sStride: ops[i+2].src - first.src,
			src1: len(fp.members), idx: dup.idx,
		}
		fp.members = append(fp.members, ops[i:i+1+k]...)
		fp.ops = append(fp.ops, fold)
		i += 1 + k
	}
}

// chainLen returns how many vmax ops follow a dup at ops[0] as one
// foldable chain (see foldChains), or 0.
func chainLen(ops []flatOp) int {
	if len(ops) < 3 || ops[0].kind != fVec || ops[0].op != isa.VDup {
		return 0
	}
	d := &ops[0]
	first := &ops[1]
	nb := d.n * fp16.Bytes
	stride := 0
	k := 0
	for _, op := range ops[1:] {
		if op.kind != fVec || op.op != isa.VMax || op.n != d.n ||
			op.dBuf != d.dBuf || op.dst != d.dst || op.s1Buf != d.dBuf || op.src1 != d.dst ||
			op.sBuf != first.sBuf {
			break
		}
		if k == 1 {
			stride = op.src - first.src
		}
		if k > 0 && (stride < 0 || op.src != first.src+k*stride) {
			break
		}
		if op.sBuf == d.dBuf && op.src < d.dst+nb && d.dst < op.src+nb {
			break // the source overlaps the destination
		}
		k++
	}
	if k < 2 {
		return 0
	}
	return k
}

// ExecFlat functionally executes a flattened trace, in trace (= program)
// order; buffer contents afterwards are bit-identical to interpreting the
// original program instruction by instruction. It computes no Stats (see
// Time). On a traced core it records the schedule entries Run would
// record: every instruction's, or, when the run fails, those of the
// instructions before the failing one.
func (c *Core) ExecFlat(fp *FlatProgram) error {
	ran, err := c.execOps(fp, fp.ops)
	c.TraceUpTo(fp.prog, ran)
	return err
}

// execOps runs ops in order. It returns how many instructions of the
// program ran: all of them, or on an error those before the failing one.
// A fold whose bounds fail runs its members unfused instead, so the error
// names the instruction the interpreter would name, after the same
// writes.
func (c *Core) execOps(fp *FlatProgram, ops []flatOp) (int, error) {
	for i := range ops {
		op := &ops[i]
		if c.interrupted() {
			return op.idx, fmt.Errorf("aicore: %s instr %d: %w", fp.prog.Name, op.idx, ErrInterrupted)
		}
		if op.kind == fFold {
			if !c.execFold(op) {
				if ran, err := c.execOps(fp, fp.members[op.src1:op.src1+op.rows+1]); err != nil {
					return ran, err
				}
			}
			continue
		}
		if err := c.execFlat(fp.prog, op); err != nil {
			return op.idx, fmt.Errorf("aicore: %s instr %d (%s): %w", fp.prog.Name, op.idx, fp.prog.Instrs[op.idx], err)
		}
	}
	return len(fp.prog.Instrs), nil
}

// execFold runs a vmax reduction chain fused, or reports false, having
// written nothing, when any of its accesses is out of bounds. The sources
// lie on a line, so the first and last bound them all.
func (c *Core) execFold(op *flatOp) bool {
	nb := op.n * fp16.Bytes
	dst, src := c.Mem.Mem(op.dBuf), c.Mem.Mem(op.sBuf)
	end := op.src + (op.rows-1)*op.sStride + nb
	if op.dst < 0 || op.dst+nb > len(dst) || op.src < 0 || end > len(src) {
		return false
	}
	fp16.MaxFold(dst[op.dst:op.dst+nb], op.scalar, src[op.src:end], op.sStride, op.rows)
	return true
}

func flatBounds(off, n, size int) error {
	if off < 0 || off+n > size {
		return fmt.Errorf("access [%d:%d) exceeds capacity %d", off, off+n, size)
	}
	return nil
}

func (c *Core) execFlat(prog *cce.Program, op *flatOp) error {
	switch op.kind {
	case fInstr:
		return c.exec(prog.Instrs[op.idx])
	case fGather:
		dst := c.Mem.Mem(op.dBuf)
		src := c.Mem.Mem(op.sBuf)
		// The rows lie on a line, so the first and last bound them all.
		last := op.rows - 1
		if err := flatBounds(op.dst, op.n, len(dst)); err != nil {
			return err
		}
		if err := flatBounds(op.dst+last*op.dStride, op.n, len(dst)); err != nil {
			return err
		}
		if err := flatBounds(op.src, op.n, len(src)); err != nil {
			return err
		}
		if err := flatBounds(op.src+last*op.sStride, op.n, len(src)); err != nil {
			return err
		}
		d, s := op.dst, op.src
		for range op.rows {
			copy(dst[d:d+op.n], src[s:s+op.n])
			d += op.dStride
			s += op.sStride
		}
	case fMove:
		dst := c.Mem.Mem(op.dBuf)
		src := c.Mem.Mem(op.sBuf)
		if err := flatBounds(op.dst, op.n, len(dst)); err != nil {
			return err
		}
		if err := flatBounds(op.src, op.n, len(src)); err != nil {
			return err
		}
		copy(dst[op.dst:op.dst+op.n], src[op.src:op.src+op.n])
	case fZero:
		dst := c.Mem.Mem(op.dBuf)
		if err := flatBounds(op.dst, op.n, len(dst)); err != nil {
			return err
		}
		clear(dst[op.dst : op.dst+op.n])
	case fCvt:
		src := c.Mem.Mem(op.sBuf)
		dst := c.Mem.Mem(op.dBuf)
		if err := flatBounds(op.src, op.n*4, len(src)); err != nil {
			return err
		}
		if err := flatBounds(op.dst, op.n*fp16.Bytes, len(dst)); err != nil {
			return err
		}
		for i := 0; i < op.n; i++ {
			f := math.Float32frombits(binary.LittleEndian.Uint32(src[op.src+i*4:]))
			fp16.Store(dst, op.dst+i*fp16.Bytes, fp16.FromFloat32(f))
		}
	case fAcc:
		dst := c.Mem.Mem(op.dBuf)
		src := c.Mem.Mem(op.sBuf)
		nb := op.n * fp16.Bytes
		if err := flatBounds(op.dst, nb, len(dst)); err != nil {
			return err
		}
		if err := flatBounds(op.src, nb, len(src)); err != nil {
			return err
		}
		d := dst[op.dst : op.dst+nb]
		fp16.AddSlice(d, d, src[op.src:op.src+nb])
	case fVec:
		return c.execFlatVec(op)
	case fVecMasked:
		return c.execFlatVecMasked(op)
	}
	return nil
}

// execFlatVec runs one coalesced full-mask vector span with a single op
// dispatch and a tight per-lane loop in original lane order.
func (c *Core) execFlatVec(op *flatOp) error {
	nb := op.n * fp16.Bytes
	d := c.Mem.Mem(op.dBuf)
	if err := flatBounds(op.dst, nb, len(d)); err != nil {
		return err
	}
	dst := d[op.dst : op.dst+nb]
	var s0, s1 []byte
	if op.op.IsUnary() || op.op.IsBinary() {
		m := c.Mem.Mem(op.sBuf)
		if err := flatBounds(op.src, nb, len(m)); err != nil {
			return err
		}
		s0 = m[op.src : op.src+nb]
	}
	if op.op.IsBinary() {
		m := c.Mem.Mem(op.s1Buf)
		if err := flatBounds(op.src1, nb, len(m)); err != nil {
			return err
		}
		s1 = m[op.src1 : op.src1+nb]
	}
	switch op.op {
	case isa.VDup:
		fp16.DupSlice(dst, op.scalar)
	case isa.VCopy:
		// The subslices alias the same backing arrays, so an overlapping
		// in-buffer copy must keep the per-lane forward order.
		if op.dBuf != op.sBuf || op.dst+nb <= op.src || op.src+nb <= op.dst {
			copy(dst, s0)
		} else {
			for i := 0; i < nb; i += fp16.Bytes {
				fp16.Store(dst, i, fp16.Load(s0, i))
			}
		}
	case isa.VAdds:
		fp16.AddsSlice(dst, s0, op.scalar)
	case isa.VMuls:
		fp16.MulsSlice(dst, s0, op.scalar)
	case isa.VAdd:
		fp16.AddSlice(dst, s0, s1)
	case isa.VSub:
		fp16.SubSlice(dst, s0, s1)
	case isa.VMul:
		fp16.MulSlice(dst, s0, s1)
	case isa.VMax:
		fp16.MaxSlice(dst, s0, s1)
	case isa.VMin:
		fp16.MinSlice(dst, s0, s1)
	case isa.VCmpEq:
		fp16.CmpEqSlice(dst, s0, s1)
	default:
		return fmt.Errorf("unknown vector op %v", op.op)
	}
	return nil
}

// execFlatVecMasked runs one partially masked 16-lane block.
func (c *Core) execFlatVecMasked(op *flatOp) error {
	const nb = isa.ElemsPerBlock * fp16.Bytes
	dst := c.Mem.Mem(op.dBuf)
	if err := flatBounds(op.dst, nb, len(dst)); err != nil {
		return err
	}
	var s0, s1 []byte
	if op.op.IsUnary() || op.op.IsBinary() {
		s0 = c.Mem.Mem(op.sBuf)
		if err := flatBounds(op.src, nb, len(s0)); err != nil {
			return err
		}
	}
	if op.op.IsBinary() {
		s1 = c.Mem.Mem(op.s1Buf)
		if err := flatBounds(op.src1, nb, len(s1)); err != nil {
			return err
		}
	}
	for e := 0; e < isa.ElemsPerBlock; e++ {
		if op.msk16>>uint(e)&1 == 0 {
			continue
		}
		var out fp16.Float16
		switch op.op {
		case isa.VDup:
			out = op.scalar
		case isa.VCopy:
			out = fp16.Load(s0, op.src+e*fp16.Bytes)
		case isa.VAdds:
			out = fp16.Add(fp16.Load(s0, op.src+e*fp16.Bytes), op.scalar)
		case isa.VMuls:
			out = fp16.Mul(fp16.Load(s0, op.src+e*fp16.Bytes), op.scalar)
		default:
			a := fp16.Load(s0, op.src+e*fp16.Bytes)
			b := fp16.Load(s1, op.src1+e*fp16.Bytes)
			switch op.op {
			case isa.VAdd:
				out = fp16.Add(a, b)
			case isa.VSub:
				out = fp16.Sub(a, b)
			case isa.VMul:
				out = fp16.Mul(a, b)
			case isa.VMax:
				out = fp16.Max(a, b)
			case isa.VMin:
				out = fp16.Min(a, b)
			case isa.VCmpEq:
				if fp16.Equal(a, b) {
					out = fp16.One
				} else {
					out = fp16.Zero
				}
			default:
				return fmt.Errorf("unknown vector op %v", op.op)
			}
		}
		fp16.Store(dst, op.dst+e*fp16.Bytes, out)
	}
	return nil
}
