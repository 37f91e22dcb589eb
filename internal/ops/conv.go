package ops

import (
	"fmt"

	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/tensor"
)

// PackWeightsFractal converts a (Co, C, Kh, Kw) weight stack into the
// fractal operand layout the Cube unit consumes from L0B: a
// (K, N, 16, 16) tensor with K = C1*Kh*Kw fractal rows (one per
// (c1, xk, yk), matching the fractals an Im2Col load in repeat mode 0
// produces) and N = Co1 fractal columns. Row c0 / column oc0 of fractal
// (k, n) holds weights[n*16+oc0, c1*16+c0, xk, yk]; positions beyond Co or
// C are zero padding. Frameworks prepare weights in this layout offline.
func PackWeightsFractal(w *tensor.Tensor, p isa.ConvParams) *tensor.Tensor {
	if len(w.Shape) != 4 || w.Shape[2] != p.Kh || w.Shape[3] != p.Kw {
		panic(fmt.Sprintf("ops: want (Co,C,%d,%d) weights, got %v", p.Kh, p.Kw, w.Shape))
	}
	co, c := w.Shape[0], w.Shape[1]
	c1, co1 := tensor.C1Of(c), tensor.C1Of(co)
	out := tensor.New(c1*p.Kh*p.Kw, co1, isa.FractalPatches, isa.FractalC0)
	for oc := 0; oc < co; oc++ {
		for ic := 0; ic < c; ic++ {
			for xk := 0; xk < p.Kh; xk++ {
				for yk := 0; yk < p.Kw; yk++ {
					k := (ic/tensor.C0)*p.Kh*p.Kw + xk*p.Kw + yk
					out.Set(w.At(oc, ic, xk, yk), k, oc/tensor.C0, ic%tensor.C0, oc%tensor.C0)
				}
			}
		}
	}
	return out
}

// planConv2D compiles convolution on the Cube unit for d.Co x d.C logical
// channels, the primary use the Im2Col instruction was designed for
// (§II-A, §III-C): patches are loaded from L1 into L0A with Im2Col in
// repeat mode 0 (one instruction per 16-patch fractal covering every
// (c1, xk, yk)), weights stream into L0B, the MMAD accumulates in fp32 in
// L0C, and the result converts back to Float16 on its way through the
// Unified Buffer. It has no schedule axes.
//
// Run takes an input of shape (1, C1, Ih, Iw, C0) and (Co, C, Kh, Kw)
// weights, and returns a (1, Co1, Oh, Ow, C0) result.
func planConv2D(spec Spec, d Dims, _ ScheduleParams) (*Plan, error) {
	p, co, c := d.P, d.Co, d.C
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := newPlanner("conv2d_im2col_cube", spec, p)
	mem := b.mem
	c1 := tensor.C1Of(c)

	kDim := c1 * p.Kh * p.Kw // fractal rows of the im2col matrix
	nDim := tensor.C1Of(co)  // fractal columns of the weight matrix
	oh, ow := p.OutDims()
	patches := p.Patches()
	fracs := p.Fractals()
	inBytes := c1 * p.Ih * p.Iw * Block
	wBytes := kDim * nDim * isa.FractalBytes

	if wBytes > mem.Space(isa.L0B).Free() {
		return nil, errCapacity("ops: conv weights (%d bytes) exceed L0B; tile Co/C further", wBytes)
	}

	inGM, err := b.input(inBytes)
	if err != nil {
		return nil, err
	}
	wGM, err := b.input(wBytes)
	if err != nil {
		return nil, err
	}
	outGM, err := mem.Space(isa.GM).Alloc(nDim * patches * Block)
	if err != nil {
		return nil, err
	}
	l1In, err := mem.Space(isa.L1).Alloc(inBytes)
	if err != nil {
		return nil, err
	}
	l1W, err := mem.Space(isa.L1).Alloc(wBytes)
	if err != nil {
		return nil, err
	}
	l0b := mem.Space(isa.L0B).MustAlloc(wBytes)

	// Patch-fractal band sized by L0A, L0C and the UB staging area.
	const fp32Frac = isa.FractalPatches * isa.FractalC0 * 4
	mBandMax := min(
		mem.Space(isa.L0A).Free()/(kDim*isa.FractalBytes),
		mem.Space(isa.L0C).Free()/(nDim*fp32Frac),
	)
	mBandMax = min(mBandMax, ubAvail(mem)/(nDim*isa.FractalBytes))
	mBand := min(mBandMax, fracs)
	if mBand < 1 {
		return nil, errCapacity("ops: conv K=%d N=%d does not fit the L0 buffers; tile channels further", kDim, nDim)
	}
	l0a := mem.Space(isa.L0A).MustAlloc(mBand * kDim * isa.FractalBytes)
	l0c := mem.Space(isa.L0C).MustAlloc(mBand * nDim * fp32Frac)
	ubOut := mem.Space(isa.UB).MustAlloc(mBand * nDim * isa.FractalBytes)

	prog := cce.New("conv2d_im2col_cube")
	prog.EmitCopy(isa.GM, inGM, isa.L1, l1In, inBytes)
	prog.EmitCopy(isa.GM, wGM, isa.L1, l1W, wBytes)
	prog.EmitCopy(isa.L1, l1W, isa.L0B, l0b, wBytes)

	for m0 := 0; m0 < fracs; m0 += mBand {
		mb := min(mBand, fracs-m0)
		// Im2Col in repeat mode 0: per patch fractal, one instruction
		// walks every (c1, xk, yk) and deposits K contiguous fractals —
		// exactly the row-major (m, k) operand layout MMAD consumes.
		for m := 0; m < mb; m++ {
			rep := 0
			for _, r := range isa.SplitRepeat(kDim) {
				c1Idx := rep / (p.Kh * p.Kw)
				kpos := rep % (p.Kh * p.Kw)
				prog.Emit(&isa.Im2ColInstr{
					SrcBuf: isa.L1, SrcAddr: l1In,
					DstBuf: isa.L0A, DstAddr: l0a + (m*kDim+rep)*isa.FractalBytes,
					P: p, C1Len: c1, C1Idx: c1Idx,
					Xk: kpos / p.Kw, Yk: kpos % p.Kw,
					Patch0:     (m0 + m) * isa.FractalPatches,
					RepeatMode: isa.Im2ColRepeatKernel, Repeat: r,
				})
				rep += r
			}
		}
		prog.Emit(&isa.MmadInstr{AAddr: l0a, BAddr: l0b, CAddr: l0c, M: mb, K: kDim, N: nDim})
		// Stage fp32 fractals to the UB as Float16, then store per output
		// channel block.
		for m := 0; m < mb; m++ {
			for n := 0; n < nDim; n++ {
				prog.Emit(&isa.ConvCopyInstr{
					SrcAddr: l0c + (m*nDim+n)*fp32Frac,
					DstAddr: ubOut + (n*mBand+m)*isa.FractalBytes,
					Elems:   isa.FractalPatches * isa.FractalC0,
				})
			}
		}
		valid := min(patches, (m0+mb)*isa.FractalPatches) - m0*isa.FractalPatches
		for n := 0; n < nDim; n++ {
			prog.EmitCopy(isa.UB, ubOut+n*mBand*isa.FractalBytes,
				isa.GM, outGM+(n*patches+m0*isa.FractalPatches)*Block, valid*Block)
		}
	}
	b.output(outGM, 1, nDim, oh, ow, tensor.C0)
	pl, err := b.seal(prog, spec)
	if err != nil {
		return nil, err
	}
	pl.bind = func(inputs []*tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{inputs[0], PackWeightsFractal(inputs[1], p)}
	}
	return pl, nil
}
