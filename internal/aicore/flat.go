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
	// fFold runs a reduction chain in one pass: the n lanes at dst, its
	// range R, start from a dup of scalar when dup is set and from their
	// own values otherwise; then for each of rows steps, R = op(source, R),
	// op vmax or vadd. The steps' source offsets in sBuf and instruction
	// indices are FlatProgram.stepSrc and stepIdx[src1 : src1+rows]. src is
	// the first source, and sStride the sources' constant stride, or -1
	// when they do not lie on a line.
	fFold
)

// flatOp is one primitive data operation of a flattened program. Byte
// offsets are resolved; n counts lanes for fVec/fVecMasked/fAcc/fCvt/fFold
// and bytes for fMove/fZero/fGather (per row). Every plan is flattened on its
// first run, so the struct is kept small: fInstr finds its instruction
// through idx rather than holding it.
type flatOp struct {
	kind   flatKind
	dup    bool // fFold: the chain starts with a dup of scalar
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
	// strides in bytes; fFold: the step count and source stride.
	rows, dStride, sStride int
	idx                    int // originating instruction index
}

// FlatProgram is a pre-flattened functional execution trace of a program:
// instruction decode, lane masking, repeat/block address arithmetic and the
// SCU's positional walk are resolved once into a linear list of primitive
// data operations, with adjacent operations coalesced whenever doing so
// preserves the exact elementary load/op/store order, and vmax and vadd
// reduction chains fused as they are appended, whenever every lane keeps
// its exact sequence of operations (settle). Executing the trace is
// bit-identical to interpreting the program instruction by instruction,
// but amortizes all per-lane bookkeeping — which is what makes plan runs
// cheap. Every program runs this way (Run, plans, RunExplicit); the
// interpreter (exec) remains only as the fallback for instructions the
// trace does not resolve.
// Flattening never affects timing: cycle counts come from the data-free
// walk of the program (Time), which plans memoize.
type FlatProgram struct {
	prog *cce.Program
	ops  []flatOp
	// stepSrc and stepIdx hold the source offset and instruction index of
	// every fFold step, in trace order: all an unfused run of a fold needs.
	stepSrc, stepIdx []int32
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
			fp.push(flatOp{
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
	fp.settle()
	return fp
}

func (fp *FlatProgram) fallback(idx int) {
	fp.push(flatOp{kind: fInstr, idx: idx})
}

// push appends op to the trace. The last op can no longer grow once
// another follows it, so push first folds it into a reduction chain when
// it is a chain step (settle).
func (fp *FlatProgram) push(op flatOp) {
	fp.settle()
	fp.ops = append(fp.ops, op)
}

// settle folds the trace's last op into the reduction chain before it
// when the op is a chain step. A chain is an optional full-mask dup of a
// range R, then steps R = op(source, R) with one op, vmax or vadd, all
// full-mask over R and reading one source buffer at any offsets, none
// overlapping R (isStep). A chain with no dup starts from R's own values,
// so it needs two steps to fold; a dup and one step fold already. Each
// lane goes through the same operations with the same operands in the
// same order fused or not, so the fold is bit-identical. Only each step's
// source offset and instruction index are kept, for an unfused run.
// settle reports whether it folded; a settled trace ends in an op settle
// leaves alone, so calling it again changes nothing.
func (fp *FlatProgram) settle() bool {
	ln := len(fp.ops)
	if ln < 2 || !isStep(&fp.ops[ln-1]) {
		return false
	}
	step, prev := &fp.ops[ln-1], &fp.ops[ln-2]
	sameRange := prev.dBuf == step.dBuf && prev.dst == step.dst && prev.n == step.n
	switch {
	case !sameRange:
		return false
	case prev.kind == fFold && prev.op == step.op && prev.sBuf == step.sBuf:
	case prev.kind == fVec && prev.op == isa.VDup:
		*prev = flatOp{kind: fFold, dup: true, scalar: prev.scalar, op: step.op,
			dBuf: prev.dBuf, dst: prev.dst, n: prev.n, sBuf: step.sBuf, src1: len(fp.stepSrc), idx: prev.idx}
	case isStep(prev) && prev.op == step.op && prev.sBuf == step.sBuf:
		src, idx := prev.src, prev.idx
		*prev = flatOp{kind: fFold, op: step.op,
			dBuf: prev.dBuf, dst: prev.dst, n: prev.n, sBuf: step.sBuf, src1: len(fp.stepSrc), idx: idx}
		fp.appendStep(prev, src, idx)
	default:
		return false
	}
	fp.appendStep(prev, step.src, step.idx)
	fp.ops = fp.ops[:ln-1]
	return true
}

// isStep reports whether op can be a reduction chain step: a full-mask
// vmax or vadd R = op(source, R) whose source does not overlap R, with a
// source offset and instruction index that fit the step list.
func isStep(op *flatOp) bool {
	if op.kind != fVec || (op.op != isa.VMax && op.op != isa.VAdd) || op.s1Buf != op.dBuf || op.src1 != op.dst {
		return false
	}
	nb := op.n * fp16.Bytes
	if op.sBuf == op.dBuf && op.src < op.dst+nb && op.dst < op.src+nb {
		return false
	}
	return op.src == int(int32(op.src)) && op.idx == int(int32(op.idx))
}

// appendStep adds the step reading src, of instruction idx, to the fold
// f, tracking whether the sources still lie at a constant stride >= 0.
func (fp *FlatProgram) appendStep(f *flatOp, src, idx int) {
	switch {
	case f.rows == 0:
		f.src = src
	case f.rows == 1:
		f.sStride = src - f.src
		if f.sStride < 0 {
			f.sStride = -1
		}
	case f.sStride >= 0 && src != f.src+f.rows*f.sStride:
		f.sStride = -1
	}
	f.rows++
	fp.stepSrc = append(fp.stepSrc, int32(src))
	fp.stepIdx = append(fp.stepIdx, int32(idx))
}

// maskBlock extracts the 16 mask bits covering block b's lanes.
func maskBlock(m isa.Mask, b int) uint16 {
	return uint16(m[b>>2] >> uint((b&3)*16))
}

// flattenVec expands a vector instruction block by block, in repeat order.
// Fully-masked blocks become fVec ops and merge with a contiguous
// predecessor: a merged tight loop executes the identical sequence of
// elementary load/op/store steps, so coalescing is always safe even for
// reduction-style (overlapping or in-place) addressing. A predecessor
// that is the next step of the reduction chain before it folds into that
// chain instead (settle): the standard lowering's last step of one output
// pixel can be contiguous with the first step of the next. Partially
// masked blocks stay per-block; fully disabled blocks are dropped.
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
				fp.push(op)
				continue
			}
			if ln := len(fp.ops); ln > 0 {
				prev := &fp.ops[ln-1]
				if prev.kind == fVec && prev.op == v.Op && prev.scalar == v.Scalar &&
					prev.dBuf == op.dBuf && prev.dst+prev.n*fp16.Bytes == op.dst &&
					(!(unary || binary) || (prev.sBuf == op.sBuf && prev.src+prev.n*fp16.Bytes == op.src)) &&
					(!binary || (prev.s1Buf == op.s1Buf && prev.src1+prev.n*fp16.Bytes == op.src1)) &&
					!fp.settle() {
					prev.n += isa.ElemsPerBlock
					continue
				}
			}
			fp.push(op)
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
	fp.push(flatOp{kind: fMove, dBuf: dBuf, sBuf: sBuf, dst: dst, src: src, n: n, idx: idx})
}

func (fp *FlatProgram) appendZero(idx int, dBuf isa.BufID, dst, n int) {
	if ln := len(fp.ops); ln > 0 {
		prev := &fp.ops[ln-1]
		if prev.kind == fZero && prev.dBuf == dBuf && prev.dst+prev.n == dst {
			prev.n += n
			return
		}
	}
	fp.push(flatOp{kind: fZero, dBuf: dBuf, dst: dst, n: n, idx: idx})
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
// identically. The trace is settled first, so the ops from start on are
// the instruction's own.
func (fp *FlatProgram) flattenIm2Col(idx int, im *isa.Im2ColInstr) {
	fp.settle()
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
	fp.push(flatOp{kind: fAcc, dBuf: dBuf, sBuf: sBuf, dst: dst, src: src, n: isa.FractalC0, idx: idx})
}

func (fp *FlatProgram) flattenCol2Im(idx int, ci *isa.Col2ImInstr) {
	fp.settle()
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

// ExecFlat functionally executes a flattened trace, in trace (= program)
// order; buffer contents afterwards are bit-identical to interpreting the
// original program instruction by instruction. It computes no Stats (see
// Time). On a traced core it records the schedule entries Run would
// record: every instruction's, or, when the run fails, those of the
// instructions before the failing one.
func (c *Core) ExecFlat(fp *FlatProgram) error {
	ran, err := c.execOps(fp)
	c.TraceUpTo(fp.prog, ran)
	return err
}

// execOps runs the trace in order. It returns how many instructions of
// the program ran: all of them, or on an error those before the failing
// one.
func (c *Core) execOps(fp *FlatProgram) (int, error) {
	for i := range fp.ops {
		op := &fp.ops[i]
		if c.interrupted() {
			return op.idx, fmt.Errorf("aicore: %s instr %d: %w", fp.prog.Name, op.idx, ErrInterrupted)
		}
		idx, err := op.idx, error(nil)
		if op.kind == fFold {
			idx, err = c.execFold(fp, op)
		} else {
			err = c.execFlat(fp.prog, op)
		}
		if err != nil {
			return idx, fmt.Errorf("aicore: %s instr %d (%s): %w", fp.prog.Name, idx, fp.prog.Instrs[idx], err)
		}
	}
	return len(fp.prog.Instrs), nil
}

// execFold runs a reduction chain. When all its accesses are in bounds it
// runs fused: a dup-led vmax chain whose sources lie on a line through
// fp16.MaxFold, any other chain through fp16.MaxFoldAt or fp16.AddFold,
// after its dup. Otherwise it runs the dup and the steps unfused, as the
// fVec ops they were, so the error names the instruction the interpreter
// would name, after the same writes; it returns that instruction's index
// with the error.
func (c *Core) execFold(fp *FlatProgram, op *flatOp) (int, error) {
	nb := op.n * fp16.Bytes
	dst, src := c.Mem.Mem(op.dBuf), c.Mem.Mem(op.sBuf)
	offs := fp.stepSrc[op.src1 : op.src1+op.rows]
	if op.dst < 0 || op.dst+nb > len(dst) {
		return c.execUnfused(fp, op)
	}
	for _, off := range offs {
		if off < 0 || int(off)+nb > len(src) {
			return c.execUnfused(fp, op)
		}
	}
	d := dst[op.dst : op.dst+nb]
	switch {
	case op.op == isa.VMax && op.dup && op.sStride >= 0:
		fp16.MaxFold(d, op.scalar, src[op.src:], op.sStride, op.rows)
		return 0, nil
	case op.dup:
		fp16.DupSlice(d, op.scalar)
	}
	if op.op == isa.VMax {
		fp16.MaxFoldAt(d, src, offs)
	} else {
		fp16.AddFold(d, src, offs)
	}
	return 0, nil
}

// execUnfused runs a fold's dup and steps one by one, through the code
// that runs an fVec op, and returns the failing one's index and error.
func (c *Core) execUnfused(fp *FlatProgram, op *flatOp) (int, error) {
	step := flatOp{kind: fVec, op: isa.VDup, scalar: op.scalar, dBuf: op.dBuf, dst: op.dst, n: op.n}
	if op.dup {
		if err := c.execFlatVec(&step); err != nil {
			return op.idx, err
		}
	}
	step.op, step.sBuf, step.s1Buf, step.src1 = op.op, op.sBuf, op.dBuf, op.dst
	for s := op.src1; s < op.src1+op.rows; s++ {
		step.src = int(fp.stepSrc[s])
		if err := c.execFlatVec(&step); err != nil {
			return int(fp.stepIdx[s]), err
		}
	}
	return 0, nil
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
