package ops

import (
	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/tensor"
)

// planConv2DBackwardWeights compiles the weight gradient of a convolution
// for d.Co x d.C logical channels: dW = dY^T x im2col(x), contracted over
// the output patches. It has no schedule axes. Three SCU/Cube features
// cooperate:
//
//   - Im2Col loads (repeat mode 0) stream im2col(x) fractals into L0B —
//     the same loads the forward pass uses for L0A (§III-C);
//   - the SCU's matrix-tile transposition (§III-A) turns dY fractals into
//     dY^T fractals on their way into L0A;
//   - MMAD accumulates the patch contraction in fp32 across patch bands.
//
// Run takes a (1, Co1, Oh, Ow, C0) gradient and a (1, C1, Ih, Iw, C0)
// input, and returns the (Co, C, Kh, Kw) weight gradient.
func planConv2DBackwardWeights(spec Spec, d Dims, _ ScheduleParams) (*Plan, error) {
	p, co, c := d.P, d.Co, d.C
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := newPlanner("conv2d_bwd_weights", spec, p)
	core := b.core
	_, ow := p.OutDims()
	co1, c1 := tensor.C1Of(co), tensor.C1Of(c)

	patches := p.Patches()
	padded := p.PaddedPatches()
	fracs := p.Fractals()
	nMM := c1 * p.Kh * p.Kw
	const fp32Frac = isa.FractalPatches * isa.FractalC0 * 4
	gpadBytes := co1 * padded * Block
	xBytes := c1 * p.Ih * p.Iw * Block

	gradGM, err := b.input(gpadBytes)
	if err != nil {
		return nil, err
	}
	xGM, err := b.input(xBytes)
	if err != nil {
		return nil, err
	}
	dwGM, err := core.Mem.Space(isa.GM).Alloc(co1 * nMM * isa.FractalBytes)
	if err != nil {
		return nil, err
	}
	l1Grad, err := core.Mem.Space(isa.L1).Alloc(gpadBytes)
	if err != nil {
		return nil, err
	}
	l1X, err := core.Mem.Space(isa.L1).Alloc(xBytes)
	if err != nil {
		return nil, err
	}

	// Patch-fractal band bounded by L0A (Co1 x band) and L0B (band x nMM);
	// L0C holds the full Co1 x nMM accumulator.
	if co1*nMM*fp32Frac > core.Mem.Space(isa.L0C).Free() {
		return nil, errCapacity("ops: conv dW accumulator Co1=%d N=%d exceeds L0C; tile channels further", co1, nMM)
	}
	mBand := min(
		core.Mem.Space(isa.L0A).Free()/(co1*isa.FractalBytes),
		core.Mem.Space(isa.L0B).Free()/(nMM*isa.FractalBytes),
	)
	mBand = min(mBand, fracs)
	if mBand < 1 {
		return nil, errCapacity("ops: conv dW Co1=%d N=%d does not fit L0A/L0B; tile channels further", co1, nMM)
	}
	if co1*nMM*isa.FractalBytes > ubAvail(core) {
		return nil, errCapacity("ops: conv dW staging exceeds the UB; tile channels further")
	}
	l0a := core.Mem.Space(isa.L0A).MustAlloc(co1 * mBand * isa.FractalBytes)
	l0b := core.Mem.Space(isa.L0B).MustAlloc(mBand * nMM * isa.FractalBytes)
	l0c := core.Mem.Space(isa.L0C).MustAlloc(co1 * nMM * fp32Frac)
	ubOut := core.Mem.Space(isa.UB).MustAlloc(co1 * nMM * isa.FractalBytes)

	prog := cce.New("conv2d_bwd_weights")
	prog.EmitCopy(isa.GM, gradGM, isa.L1, l1Grad, gpadBytes)
	prog.EmitCopy(isa.GM, xGM, isa.L1, l1X, xBytes)

	for m0 := 0; m0 < fracs; m0 += mBand {
		mb := min(mBand, fracs-m0)
		// A = dY^T: one transpose stream per Co1 slice.
		for k := 0; k < co1; k++ {
			prog.Emit(&isa.TransposeInstr{
				SrcBuf: isa.L1, SrcAddr: l1Grad + (k*padded+m0*isa.FractalPatches)*Block,
				DstBuf: isa.L0A, DstAddr: l0a + k*mb*isa.FractalBytes,
				Repeat: mb,
			})
		}
		// B = im2col(x): one mode-0 Im2Col per patch fractal, walking every
		// (c1, xk, yk) — the row-major (pf, n) operand layout.
		for m := 0; m < mb; m++ {
			rep := 0
			for _, r := range isa.SplitRepeat(nMM) {
				c1Idx := rep / (p.Kh * p.Kw)
				kpos := rep % (p.Kh * p.Kw)
				prog.Emit(&isa.Im2ColInstr{
					SrcBuf: isa.L1, SrcAddr: l1X,
					DstBuf: isa.L0B, DstAddr: l0b + (m*nMM+rep)*isa.FractalBytes,
					P: p, C1Len: c1, C1Idx: c1Idx,
					Xk: kpos / p.Kw, Yk: kpos % p.Kw,
					Patch0:     (m0 + m) * isa.FractalPatches,
					RepeatMode: isa.Im2ColRepeatKernel, Repeat: r,
				})
				rep += r
			}
		}
		prog.Emit(&isa.MmadInstr{
			AAddr: l0a, BAddr: l0b, CAddr: l0c,
			M: co1, K: mb, N: nMM,
			Accumulate: m0 > 0, // first band initializes, later bands add
		})
	}
	// Stage the accumulated dW fractals through the UB and store them.
	for i := 0; i < co1*nMM; i++ {
		prog.Emit(&isa.ConvCopyInstr{
			SrcAddr: l0c + i*fp32Frac,
			DstAddr: ubOut + i*isa.FractalBytes,
			Elems:   isa.FractalPatches * isa.FractalC0,
		})
	}
	prog.EmitCopy(isa.UB, ubOut, isa.GM, dwGM, co1*nMM*isa.FractalBytes)

	b.output(dwGM, co1, nMM, isa.FractalPatches, isa.FractalC0)
	pl, err := b.seal(prog, spec)
	if err != nil {
		return nil, err
	}
	pl.bind = func(inputs []*tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{padGrad(inputs[0], ow, patches, padded), inputs[1]}
	}
	// Unpack the (co1, n, 16, 16) fractal grid into (Co, C, Kh, Kw).
	pl.finish = func(outs []*tensor.Tensor) []*tensor.Tensor {
		frac := outs[0]
		dw := tensor.New(co, c, p.Kh, p.Kw)
		for oc := 0; oc < co; oc++ {
			for ic := 0; ic < c; ic++ {
				for xk := 0; xk < p.Kh; xk++ {
					for yk := 0; yk < p.Kw; yk++ {
						n := ((ic/tensor.C0)*p.Kh+xk)*p.Kw + yk
						dw.Set(frac.At(oc/tensor.C0, n, oc%tensor.C0, ic%tensor.C0), oc, ic, xk, yk)
					}
				}
			}
		}
		return []*tensor.Tensor{dw}
	}
	return pl, nil
}
