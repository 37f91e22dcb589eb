package aicore

import (
	"encoding/binary"
	"fmt"
	"math"

	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/scu"
)

// exec dispatches functional execution of one instruction.
func (c *Core) exec(in isa.Instr) error {
	switch v := in.(type) {
	case *isa.VecInstr:
		return c.execVec(v)
	case *isa.CopyInstr:
		return c.execCopy(v)
	case *isa.ConvCopyInstr:
		return c.execConvCopy(v)
	case *isa.Im2ColInstr:
		return c.execIm2Col(v)
	case *isa.Col2ImInstr:
		return c.execCol2Im(v)
	case *isa.MmadInstr:
		return c.execMmad(v)
	case *isa.TransposeInstr:
		return c.execTranspose(v)
	case *isa.ScalarInstr, *isa.BarrierInstr, *isa.SetFlagInstr, *isa.WaitFlagInstr:
		return nil
	default:
		return fmt.Errorf("unknown instruction type %T", in)
	}
}

func (c *Core) checkSpan(r isa.Region) error {
	mem := c.Mem.Mem(r.Buf)
	if r.Off < 0 || r.End > len(mem) {
		return fmt.Errorf("access [%d:%d) exceeds %v capacity %d", r.Off, r.End, r.Buf, len(mem))
	}
	return nil
}

func (c *Core) checkAll(in isa.Instr) error {
	for _, r := range in.Reads() {
		if err := c.checkSpan(r); err != nil {
			return err
		}
	}
	for _, w := range in.Writes() {
		if err := c.checkSpan(w); err != nil {
			return err
		}
	}
	return nil
}

// execVec executes a vector instruction lane by lane. Repeats run in
// order, and within a repeat lanes run in order, which gives the hardware's
// sequential-repeat semantics for reduction-style addressing (destination
// repeat stride 0).
func (c *Core) execVec(v *isa.VecInstr) error {
	// Blocks past the highest enabled lane's are never accessed: the
	// bounds rule lint and the flattened trace apply.
	for _, r := range v.MaskSpans() {
		if err := c.checkSpan(r); err != nil {
			return err
		}
	}
	dstMem := c.Mem.Mem(v.Dst.Buf)
	var s0Mem, s1Mem []byte
	if v.Op.IsUnary() || v.Op.IsBinary() {
		s0Mem = c.Mem.Mem(v.Src0.Buf)
	}
	if v.Op.IsBinary() {
		s1Mem = c.Mem.Mem(v.Src1.Buf)
	}
	for r := 0; r < v.Repeat; r++ {
		for b := 0; b < isa.BlocksPerRepeat; b++ {
			dBase := v.Dst.BlockAddr(r, b)
			var s0Base, s1Base int
			if s0Mem != nil {
				s0Base = v.Src0.BlockAddr(r, b)
			}
			if s1Mem != nil {
				s1Base = v.Src1.BlockAddr(r, b)
			}
			for e := 0; e < isa.ElemsPerBlock; e++ {
				lane := b*isa.ElemsPerBlock + e
				if !v.Mask.Bit(lane) {
					continue
				}
				var out fp16.Float16
				switch v.Op {
				case isa.VDup:
					out = v.Scalar
				case isa.VCopy:
					out = fp16.Load(s0Mem, s0Base+e*fp16.Bytes)
				case isa.VAdds:
					out = fp16.Add(fp16.Load(s0Mem, s0Base+e*fp16.Bytes), v.Scalar)
				case isa.VMuls:
					out = fp16.Mul(fp16.Load(s0Mem, s0Base+e*fp16.Bytes), v.Scalar)
				default:
					a := fp16.Load(s0Mem, s0Base+e*fp16.Bytes)
					bb := fp16.Load(s1Mem, s1Base+e*fp16.Bytes)
					switch v.Op {
					case isa.VAdd:
						out = fp16.Add(a, bb)
					case isa.VSub:
						out = fp16.Sub(a, bb)
					case isa.VMul:
						out = fp16.Mul(a, bb)
					case isa.VMax:
						out = fp16.Max(a, bb)
					case isa.VMin:
						out = fp16.Min(a, bb)
					case isa.VCmpEq:
						if fp16.Equal(a, bb) {
							out = fp16.One
						} else {
							out = fp16.Zero
						}
					default:
						return fmt.Errorf("unknown vector op %v", v.Op)
					}
				}
				fp16.Store(dstMem, dBase+e*fp16.Bytes, out)
			}
		}
	}
	return nil
}

func (c *Core) execCopy(m *isa.CopyInstr) error {
	if err := c.checkAll(m); err != nil {
		return err
	}
	src := c.Mem.Mem(m.SrcBuf)
	dst := c.Mem.Mem(m.DstBuf)
	sOff, dOff := m.SrcAddr, m.DstAddr
	for b := 0; b < m.NBurst; b++ {
		copy(dst[dOff:dOff+m.BurstBytes], src[sOff:sOff+m.BurstBytes])
		sOff += m.BurstBytes + m.SrcGap
		dOff += m.BurstBytes + m.DstGap
	}
	return nil
}

func (c *Core) execConvCopy(m *isa.ConvCopyInstr) error {
	if err := c.checkAll(m); err != nil {
		return err
	}
	src := c.Mem.Mem(isa.L0C)
	dst := c.Mem.Mem(isa.UB)
	for i := 0; i < m.Elems; i++ {
		f := math.Float32frombits(binary.LittleEndian.Uint32(src[m.SrcAddr+i*4:]))
		fp16.Store(dst, m.DstAddr+i*fp16.Bytes, fp16.FromFloat32(f))
	}
	return nil
}

// execIm2Col performs the SCU load transform: one fractal per repeat, with
// the positional parameters advancing according to the repeat mode
// (paper §III-C).
func (c *Core) execIm2Col(im *isa.Im2ColInstr) error {
	if err := c.checkAll(im); err != nil {
		return err
	}
	src := c.Mem.Mem(im.SrcBuf)
	dst := c.Mem.Mem(im.DstBuf)
	patches := im.P.Patches()
	rows := im.EffRows()
	c1, xk, yk, patch0 := im.C1Idx, im.Xk, im.Yk, im.Patch0

	for f := 0; f < im.Repeat; f++ {
		fracBase := im.DstAddr + f*isa.FractalBytes
		for row := 0; row < isa.FractalPatches; row++ {
			rowAddr := fracBase + row*isa.FractalC0*fp16.Bytes
			patch := patch0 + row
			if patch >= patches {
				zero16(dst, rowAddr)
				continue
			}
			h, w, pad := scu.SourceCoord(im.P, patch, xk, yk)
			if pad {
				zero16(dst, rowAddr)
				continue
			}
			if h < im.RowBase || h >= im.RowBase+rows {
				return fmt.Errorf("im2col patch %d row %d outside band [%d,%d)",
					patch, h, im.RowBase, im.RowBase+rows)
			}
			srcOff := im.SrcAddr + ((c1*rows+h-im.RowBase)*im.P.Iw+w)*isa.FractalC0*fp16.Bytes
			copy(dst[rowAddr:rowAddr+isa.FractalC0*fp16.Bytes], src[srcOff:srcOff+isa.FractalC0*fp16.Bytes])
		}
		// Advance positional parameters for the next automatic reissue.
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
			return fmt.Errorf("im2col repeat walked past c1 extent %d", im.C1Len)
		}
	}
	return nil
}

// execCol2Im performs the vector-unit merge: per fractal, load the
// corresponding output positions, add, store back (paper Fig. 6). The tail
// rows of the last fractal and padding positions are discarded.
func (c *Core) execCol2Im(ci *isa.Col2ImInstr) error {
	if err := c.checkAll(ci); err != nil {
		return err
	}
	src := c.Mem.Mem(ci.SrcBuf)
	dst := c.Mem.Mem(ci.DstBuf)
	patches := ci.P.Patches()
	patch0 := ci.Patch0
	rows := ci.EffRows()

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
				return fmt.Errorf("col2im patch %d row %d outside band [%d,%d)",
					patch, h, ci.RowBase, ci.RowBase+rows)
			}
			rowAddr := fracBase + row*isa.FractalC0*fp16.Bytes
			dstOff := ci.DstAddr + ((ci.C1Idx*rows+h-ci.RowBase)*ci.P.Iw+w)*isa.FractalC0*fp16.Bytes
			for e := 0; e < isa.FractalC0; e++ {
				sum := fp16.Add(fp16.Load(dst, dstOff+e*fp16.Bytes), fp16.Load(src, rowAddr+e*fp16.Bytes))
				fp16.Store(dst, dstOff+e*fp16.Bytes, sum)
			}
		}
		patch0 += isa.FractalPatches
	}
	return nil
}

// execMmad multiplies fractal matrices with fp32 accumulation in L0C.
// Fractal (i, j) of an (R x S)-fractal matrix sits at base + (i*S+j)*512;
// element (r, c) of a fractal is row-major.
func (c *Core) execMmad(mm *isa.MmadInstr) error {
	if err := c.checkAll(mm); err != nil {
		return err
	}
	a := c.Mem.Mem(isa.L0A)
	b := c.Mem.Mem(isa.L0B)
	cc := c.Mem.Mem(isa.L0C)
	const fp32Bytes = 4
	fracElems := isa.FractalPatches * isa.FractalC0

	for m := 0; m < mm.M; m++ {
		for n := 0; n < mm.N; n++ {
			cBase := mm.CAddr + (m*mm.N+n)*fracElems*fp32Bytes
			for r := 0; r < isa.FractalPatches; r++ {
				for col := 0; col < isa.FractalC0; col++ {
					cOff := cBase + (r*isa.FractalC0+col)*fp32Bytes
					var acc float32
					if mm.Accumulate {
						acc = math.Float32frombits(binary.LittleEndian.Uint32(cc[cOff:]))
					}
					for k := 0; k < mm.K; k++ {
						aBase := mm.AAddr + (m*mm.K+k)*isa.FractalBytes
						bBase := mm.BAddr + (k*mm.N+n)*isa.FractalBytes
						for j := 0; j < isa.FractalC0; j++ {
							av := fp16.ToFloat32(fp16.Load(a, aBase+(r*isa.FractalC0+j)*fp16.Bytes))
							bv := fp16.ToFloat32(fp16.Load(b, bBase+(j*isa.FractalC0+col)*fp16.Bytes))
							acc += float32(av * bv) // float32() rounds the product: no target fuses it into an FMA
						}
					}
					binary.LittleEndian.PutUint32(cc[cOff:], math.Float32bits(acc))
				}
			}
		}
	}
	return nil
}

func zero16(b []byte, off int) {
	for i := 0; i < isa.FractalC0*fp16.Bytes; i++ {
		b[off+i] = 0
	}
}

// execTranspose transposes 16x16 Float16 tiles between buffers.
func (c *Core) execTranspose(tr *isa.TransposeInstr) error {
	if err := c.checkAll(tr); err != nil {
		return err
	}
	src := c.Mem.Mem(tr.SrcBuf)
	dst := c.Mem.Mem(tr.DstBuf)
	stride := tr.EffDstStride()
	for f := 0; f < tr.Repeat; f++ {
		sBase := tr.SrcAddr + f*isa.FractalBytes
		dBase := tr.DstAddr + f*stride
		for r := 0; r < isa.FractalPatches; r++ {
			for col := 0; col < isa.FractalC0; col++ {
				v := fp16.Load(src, sBase+(r*isa.FractalC0+col)*fp16.Bytes)
				fp16.Store(dst, dBase+(col*isa.FractalC0+r)*fp16.Bytes, v)
			}
		}
	}
	return nil
}
