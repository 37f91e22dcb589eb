package ops

import (
	"fmt"

	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/tensor"
)

// PackWeightsBackward converts (Co, C, Kh, Kw) weights into the transposed
// fractal layout the backward-data matmul consumes from L0B: a
// (Co1, C1*Kh*Kw) fractal grid where fractal (co1, n=(c1, xk, yk)) holds
// row r = output channel co1*16+r, column j = input channel c1*16+j of
// kernel position (xk, yk). dY x W^T then produces the im2col-shaped input
// gradient directly.
func PackWeightsBackward(w *tensor.Tensor, p isa.ConvParams) *tensor.Tensor {
	if len(w.Shape) != 4 || w.Shape[2] != p.Kh || w.Shape[3] != p.Kw {
		panic(fmt.Sprintf("ops: want (Co,C,%d,%d) weights, got %v", p.Kh, p.Kw, w.Shape))
	}
	co, c := w.Shape[0], w.Shape[1]
	co1, c1 := tensor.C1Of(co), tensor.C1Of(c)
	out := tensor.New(co1, c1*p.Kh*p.Kw, isa.FractalPatches, isa.FractalC0)
	for oc := 0; oc < co; oc++ {
		for ic := 0; ic < c; ic++ {
			for xk := 0; xk < p.Kh; xk++ {
				for yk := 0; yk < p.Kw; yk++ {
					n := ((ic/tensor.C0)*p.Kh+xk)*p.Kw + yk
					out.Set(w.At(oc, ic, xk, yk), oc/tensor.C0, n, oc%tensor.C0, ic%tensor.C0)
				}
			}
		}
	}
	return out
}

// padGrad re-lays a (1, Co1, Oh, Ow, C0) gradient as a (Co1, padded, C0)
// tensor padded to whole fractals per Co1 slice, so fractal loads never
// cross slice boundaries (the zero tail contributes nothing).
func padGrad(grad *tensor.Tensor, ow, patches, padded int) *tensor.Tensor {
	co1 := grad.Shape[1]
	gpad := tensor.New(co1, padded, tensor.C0)
	for k := 0; k < co1; k++ {
		for pt := 0; pt < patches; pt++ {
			for c0 := 0; c0 < tensor.C0; c0++ {
				gpad.Set(grad.At(0, k, pt/ow, pt%ow, c0), k, pt, c0)
			}
		}
	}
	return gpad
}

// planConv2DBackwardData compiles the gradient propagation through a
// convolution to its input for d.Co x d.C logical channels: the Cube unit
// computes dCols = dY x W^T (fractal matmul with fp32 accumulation), and
// Col2Im instructions merge the im2col-shaped gradient back to NC1HWC0 —
// the original purpose of the Col2im transform (§II-B) executed with the
// paper's Col2Im instruction. It has no schedule axes.
//
// Run takes a (1, Co1, Oh, Ow, C0) gradient and (Co, C, Kh, Kw) weights,
// and returns a (1, C1, Ih, Iw, C0) result.
func planConv2DBackwardData(spec Spec, d Dims, _ ScheduleParams) (*Plan, error) {
	p, co, c := d.P, d.Co, d.C
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := newPlanner("conv2d_bwd_data", spec, p)
	mem := b.mem
	_, ow := p.OutDims()
	co1 := tensor.C1Of(co)
	c1 := tensor.C1Of(c)

	patches := p.Patches()
	padded := p.PaddedPatches()
	fracs := p.Fractals()
	kMM := co1              // contraction extent in fractals
	nMM := c1 * p.Kh * p.Kw // output fractal columns: one per (c1, xk, yk)
	rowB := p.Iw * Block
	gpadBytes := co1 * padded * Block
	wBytes := co1 * nMM * isa.FractalBytes

	if wBytes > mem.Space(isa.L0B).Free() {
		return nil, errCapacity("ops: conv bwd weights (%d bytes) exceed L0B; tile channels further", wBytes)
	}

	gradGM, err := b.input(gpadBytes)
	if err != nil {
		return nil, err
	}
	wGM, err := b.input(wBytes)
	if err != nil {
		return nil, err
	}
	outGM, err := mem.Space(isa.GM).Alloc(c1 * p.Ih * rowB)
	if err != nil {
		return nil, err
	}
	l1W, err := mem.Space(isa.L1).Alloc(wBytes)
	if err != nil {
		return nil, err
	}
	l0b := mem.Space(isa.L0B).MustAlloc(wBytes)

	// Patch-fractal band bounded by L0A, L0C and the UB (dCols staging +
	// the multi-c1 output row band).
	const fp32Frac = isa.FractalPatches * isa.FractalC0 * 4
	rowsFor := func(b int) int { return rowsForFracs(p, ow, b) }
	bandFits := func(b int) bool {
		if b*kMM*isa.FractalBytes > mem.Space(isa.L0A).Free() {
			return false
		}
		if b*nMM*fp32Frac > mem.Space(isa.L0C).Free() {
			return false
		}
		return b*nMM*isa.FractalBytes+c1*rowsFor(b)*rowB <= ubAvail(mem)
	}
	mBand := 0
	for b := 1; b <= fracs; b++ {
		if !bandFits(b) {
			break
		}
		mBand = b
	}
	if mBand == 0 {
		return nil, errCapacity("ops: conv bwd K=%d N=%d does not fit the buffers; tile channels further", kMM, nMM)
	}
	l0a := mem.Space(isa.L0A).MustAlloc(mBand * kMM * isa.FractalBytes)
	l0c := mem.Space(isa.L0C).MustAlloc(mBand * nMM * fp32Frac)
	ub := mem.Space(isa.UB)
	ubCols := ub.MustAlloc(mBand * nMM * isa.FractalBytes)
	outRows := rowsFor(mBand)
	ubOut := ub.MustAlloc(c1 * outRows * rowB)

	prog := cce.New("conv2d_bwd_data")
	prog.EmitCopy(isa.GM, wGM, isa.L1, l1W, wBytes)
	prog.EmitCopy(isa.L1, l1W, isa.L0B, l0b, wBytes)

	prevHi := 0
	for m0 := 0; m0 < fracs; m0 += mBand {
		mb := min(mBand, fracs-m0)
		// A: dY fractals (m, k) row-major — one strided burst per k slice.
		for k := 0; k < kMM; k++ {
			prog.Emit(&isa.CopyInstr{
				SrcBuf: isa.GM, SrcAddr: gradGM + (k*padded+m0*isa.FractalPatches)*Block,
				DstBuf: isa.L0A, DstAddr: l0a + k*isa.FractalBytes,
				NBurst: mb, BurstBytes: isa.FractalBytes,
				SrcGap: 0, DstGap: (kMM - 1) * isa.FractalBytes,
			})
		}
		prog.Emit(&isa.MmadInstr{AAddr: l0a, BAddr: l0b, CAddr: l0c, M: mb, K: kMM, N: nMM})
		// dCols to the UB, arranged as one contiguous fractal run per n.
		for m := 0; m < mb; m++ {
			for n := 0; n < nMM; n++ {
				prog.Emit(&isa.ConvCopyInstr{
					SrcAddr: l0c + (m*nMM+n)*fp32Frac,
					DstAddr: ubCols + (n*mBand+m)*isa.FractalBytes,
					Elems:   isa.FractalPatches * isa.FractalC0,
				})
			}
		}
		// Output row band for every c1 slice, with boundary accumulation.
		pa := m0 * isa.FractalPatches
		lo, hi := patchRowRange(p, ow, patches, pa, pa+mb*isa.FractalPatches)
		rows := hi - lo
		overlap := max(0, prevHi-lo)
		if overlap > 0 {
			prog.Emit(&isa.CopyInstr{
				SrcBuf: isa.GM, SrcAddr: outGM + lo*rowB,
				DstBuf: isa.UB, DstAddr: ubOut,
				NBurst: c1, BurstBytes: overlap * rowB,
				SrcGap: (p.Ih - overlap) * rowB, DstGap: (rows - overlap) * rowB,
			})
		}
		for ci := 0; ci < c1; ci++ {
			if fresh := rows - overlap; fresh > 0 {
				prog.EmitDup(isa.UB, ubOut+(ci*rows+overlap)*rowB, fresh*p.Iw*tensor.C0, fp16.Zero)
			}
		}
		// The Col2Im merge: one instruction family per (c1, xk, yk).
		for ci := 0; ci < c1; ci++ {
			for xk := 0; xk < p.Kh; xk++ {
				for yk := 0; yk < p.Kw; yk++ {
					n := (ci*p.Kh+xk)*p.Kw + yk
					pt := pa
					src := ubCols + n*mBand*isa.FractalBytes
					for _, rep := range isa.SplitRepeat(mb) {
						prog.Emit(&isa.Col2ImInstr{
							SrcBuf: isa.UB, SrcAddr: src,
							DstBuf: isa.UB, DstAddr: ubOut,
							P: p, C1Len: c1, C1Idx: ci, Xk: xk, Yk: yk,
							Patch0: pt, RowBase: lo, Rows: rows, Repeat: rep,
						})
						pt += rep * isa.FractalPatches
						src += rep * isa.FractalBytes
					}
				}
			}
		}
		prog.Emit(&isa.CopyInstr{
			SrcBuf: isa.UB, SrcAddr: ubOut,
			DstBuf: isa.GM, DstAddr: outGM + lo*rowB,
			NBurst: c1, BurstBytes: rows * rowB,
			SrcGap: 0, DstGap: (p.Ih - rows) * rowB,
		})
		prevHi = hi
	}
	b.output(outGM, 1, c1, p.Ih, p.Iw, tensor.C0)
	pl, err := b.seal(prog, spec)
	if err != nil {
		return nil, err
	}
	pl.bind = func(inputs []*tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{padGrad(inputs[0], ow, patches, padded), PackWeightsBackward(inputs[1], p)}
	}
	return pl, nil
}
