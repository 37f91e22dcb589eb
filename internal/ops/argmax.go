package ops

import (
	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/tensor"
)

// planMaxPoolFwdArgmaxIm2col compiles the Fig. 7b accelerated
// implementation: Im2col-based forward Maxpool that additionally saves the
// argmax mask for training. The mask is produced by comparing each patch
// with its maximum — one full-mask vcmp per (kh, kw) slice — and stored in
// the Im2Col output shape, which keeps overlapping patches separated
// (§V-A).
func planMaxPoolFwdArgmaxIm2col(spec Spec, p isa.ConvParams, sp ScheduleParams) (*Plan, error) {
	const name = "maxpool_fwd_argmax_im2col"
	if err := noKnob(name, sp.Saturate, "saturate"); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.Epilogue, "epilogue"); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.Gather, "gather"); err != nil {
		return nil, err
	}
	b := newPlanner(name, spec, p)
	pl, err := planIm2col(b, p, name, 0, sp)
	if err != nil {
		return nil, err
	}
	mem := b.mem
	kk := p.Kh * p.Kw
	padded := p.PaddedPatches()
	maskGM, err := mem.Space(isa.GM).Alloc(kk * padded * Block)
	if err != nil {
		return nil, err
	}

	prog := cce.New("maxpool_fwd_argmax_im2col")
	pl.emitInputLoad(prog, p)

	for f0, bi := 0, 0; f0 < pl.fracs; f0, bi = f0+pl.band, bi+1 {
		fb := min(pl.band, pl.fracs-f0)
		colUB, outUB := pl.colUB[bi%pl.buffers], pl.outUB[bi%pl.buffers]
		bandPatches := fb * isa.FractalPatches
		valid := min(pl.patches, (f0+fb)*isa.FractalPatches) - f0*isa.FractalPatches

		src, rowBase, rows := pl.emitBandInput(prog, p, bi, f0, fb)
		prog.EmitIm2ColRange(src, isa.UB, colUB, p, 1, 0, f0*isa.FractalPatches, fb, rowBase, rows)
		prog.EmitDup(isa.UB, outUB, bandPatches*tensor.C0, fp16.NegativeInfinity)
		emitColReduce(prog, sp, isa.VMax, colUB, outUB, kk, fb)

		// Mask: compare each (kh, kw) slice against the broadcast maximum,
		// overwriting the im2col data in place (it is no longer needed).
		reps := fb * 2
		for s := 0; s < kk; s++ {
			slice := isa.Contig(isa.UB, colUB+s*fb*isa.FractalBytes)
			emitVecChunked(prog, sp, isa.VCmpEq, slice, slice, isa.Contig(isa.UB, outUB), 0, isa.FullMask(), reps)
			if tail := bandPatches - valid; tail > 0 {
				// The fractal tail compared 0 == 0; the saved mask keeps
				// tail rows zero (they carry no patch).
				prog.EmitDup(isa.UB, colUB+s*fb*isa.FractalBytes+valid*Block, tail*tensor.C0, fp16.Zero)
			}
		}
		// Store output band and mask band (one strided DMA: Kh*Kw bursts).
		prog.EmitCopy(isa.UB, outUB, isa.GM, pl.outGM+f0*isa.FractalPatches*Block, valid*Block)
		prog.Emit(&isa.CopyInstr{
			SrcBuf: isa.UB, SrcAddr: colUB,
			DstBuf: isa.GM, DstAddr: maskGM + f0*isa.FractalPatches*Block,
			NBurst: kk, BurstBytes: bandPatches * Block,
			SrcGap: 0, DstGap: (padded - bandPatches) * Block,
		})
	}
	b.output(pl.outGM, 1, 1, pl.oh, pl.ow, tensor.C0)
	b.output(maskGM, 1, 1, p.Kh, p.Kw, padded, tensor.C0)
	plan, err := b.seal(prog, spec)
	if err != nil {
		return nil, err
	}
	plan.Sched = ScheduleParams{
		Mode: sp.Mode, Band: pl.band, Buffers: pl.buffers, RepeatChunk: resolvedRepeatChunk(sp),
	}
	return plan, nil
}

// planMaxPoolFwdArgmaxStandard compiles the baseline of Fig. 7b: the
// standard forward lowering followed by per-patch 16-lane comparisons to
// build the argmax mask, which is stored in the same Im2Col shape as the
// accelerated version ("saving this mask is independent of the use of
// Im2Col instructions", §V-A) but costs one vcmp per (oh, ow, kh).
func planMaxPoolFwdArgmaxStandard(spec Spec, p isa.ConvParams, sp ScheduleParams) (*Plan, error) {
	const name = "maxpool_fwd_argmax_standard"
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.RepeatChunk, "repeat_chunk"); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.Epilogue, "epilogue"); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.Gather, "gather"); err != nil {
		return nil, err
	}
	b := newPlanner(name, spec, p)
	mem := b.mem
	pp := foldPadding(p)
	oh, ow := pp.OutDims()
	inRowB := pp.Iw * Block
	outRowB := ow * Block
	kk := pp.Kh * pp.Kw
	padded := p.PaddedPatches()

	gm := mem.Space(isa.GM)
	inGM, err := b.input(pp.Ih * inRowB)
	if err != nil {
		return nil, err
	}
	outGM, err := gm.Alloc(oh * outRowB)
	if err != nil {
		return nil, err
	}
	maskGM, err := gm.Alloc(kk * padded * Block)
	if err != nil {
		return nil, err
	}

	saturated := pp.Sw == 1
	switch sp.Saturate {
	case SatAuto:
	case SatFull:
		if pp.Sw != 1 {
			return nil, badSchedule(name, "saturate=full needs consecutive patches (Sw == 1), have Sw=%d", pp.Sw)
		}
	case SatNarrow:
		saturated = false
	default:
		return nil, badSchedule(name, "saturate=%d: unknown mask-width choice", sp.Saturate)
	}

	inRows := func(b int) int { return (b-1)*pp.Sh + pp.Kh }
	band, buffers, err := resolveBand(name, pp, ubAvail(mem), oh, sp, func(b, n int) int {
		return n * (inRows(b)*inRowB + b*outRowB + kk*b*outRowB)
	})
	if err != nil {
		return nil, err
	}
	ub := mem.Space(isa.UB)
	var inUB, outUB, maskUB [2]int
	for i := 0; i < buffers; i++ {
		inUB[i] = ub.MustAlloc(inRows(band) * inRowB)
		outUB[i] = ub.MustAlloc(band * outRowB)
		maskUB[i] = ub.MustAlloc(kk * band * outRowB)
	}

	prog := cce.New("maxpool_fwd_argmax_standard")
	for oh0, bi := 0, 0; oh0 < oh; oh0, bi = oh0+band, bi+1 {
		b := min(band, oh-oh0)
		iUB, oUB, mUB := inUB[bi%buffers], outUB[bi%buffers], maskUB[bi%buffers]
		bandPatches := b * ow
		prog.EmitCopy(isa.GM, inGM+oh0*pp.Sh*inRowB, isa.UB, iUB, inRows(b)*inRowB)
		prog.EmitDup(isa.UB, oUB, bandPatches*tensor.C0, fp16.NegativeInfinity)
		if saturated {
			emitReduceRowsSaturated(prog, isa.VMax, pp, iUB, oUB, b, ow)
		} else {
			emitReduceStrided(prog, isa.VMax, pp, iUB, oUB, b, ow)
		}
		// Mask: one 16-lane vcmp per (oh, ow, kh), repeating across kw
		// (the mask slices are bandPatches apart, so the destination
		// advances by bandPatches blocks per repeat).
		for i := 0; i < b; i++ {
			for owi := 0; owi < ow; owi++ {
				pt := i*ow + owi
				outBlk := isa.Operand{Buf: isa.UB, Addr: oUB + pt*Block, BlkStride: 1, RepStride: 0}
				for kh := 0; kh < pp.Kh; kh++ {
					dst := isa.Operand{
						Buf:       isa.UB,
						Addr:      mUB + ((kh*pp.Kw)*bandPatches+pt)*Block,
						BlkStride: 1,
						RepStride: bandPatches,
					}
					src := isa.Operand{
						Buf:       isa.UB,
						Addr:      iUB + ((i*pp.Sh+kh)*pp.Iw+owi*pp.Sw)*Block,
						BlkStride: 1,
						RepStride: 1,
					}
					prog.EmitVec(isa.VCmpEq, dst, src, outBlk, 0, isa.MaskFirstN(tensor.C0), pp.Kw)
				}
			}
		}
		prog.EmitCopy(isa.UB, oUB, isa.GM, outGM+oh0*outRowB, b*outRowB)
		prog.Emit(&isa.CopyInstr{
			SrcBuf: isa.UB, SrcAddr: mUB,
			DstBuf: isa.GM, DstAddr: maskGM + oh0*ow*Block,
			NBurst: kk, BurstBytes: bandPatches * Block,
			SrcGap: 0, DstGap: (padded - bandPatches) * Block,
		})
	}
	b.output(outGM, 1, 1, oh, ow, tensor.C0)
	b.output(maskGM, 1, 1, p.Kh, p.Kw, padded, tensor.C0)
	pl, err := b.seal(prog, spec)
	if err != nil {
		return nil, err
	}
	pl.bind = padTile(p)
	pl.Sched = ScheduleParams{
		Mode: sp.Mode, Band: band, Buffers: buffers, Saturate: resolvedSaturate(saturated),
	}
	return pl, nil
}
