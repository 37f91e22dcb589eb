package ops

import (
	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/tensor"
)

// planMaxPoolFwdStandard compiles the standard TVM Maxpool lowering
// (Listing 1, §V-A): the input tile is DMA'd to the Unified Buffer and
// reduced with vmax directly on the strided NC1HWC0 layout.
//
// For general strides the lowering sets only 16 of 128 mask lanes (the C0
// dimension) and uses repetition only across the patch width Kw, issuing
// vmax Oh*Ow*Kh times. When Sw == 1, consecutive patches are consecutive
// in memory, so the lowering saturates the mask over (Ow, C0) and repeats
// across the row — the effect the paper observes in Fig. 8a.
func planMaxPoolFwdStandard(spec Spec, p isa.ConvParams, sp ScheduleParams) (*Plan, error) {
	return planDirectForward("maxpool_fwd_standard", spec, p, isa.VMax, fp16.NegativeInfinity, false, sp)
}

// planAvgPoolFwdStandard compiles the standard Avgpool forward: identical
// access pattern to Maxpool but reducing with vadd instead of vmax, plus
// the element-wise division epilogue (§V-C).
func planAvgPoolFwdStandard(spec Spec, p isa.ConvParams, sp ScheduleParams) (*Plan, error) {
	return planDirectForward("avgpool_fwd_standard", spec, p, isa.VAdd, fp16.Zero, true, sp)
}

// planDirectForward is the shared standard (direct, non-Im2Col) forward
// lowering: row bands reduced with op, optionally followed by the
// 1/(Kh*Kw) scaling epilogue. The schedule — band size, buffer rotation,
// mask width, epilogue placement — comes from sp; the zero value resolves
// to the hand-tuned defaults (largest double-buffered band, Sw-dependent
// mask width, fused epilogue).
func planDirectForward(name string, spec Spec, p isa.ConvParams, op isa.VecOp, init fp16.Float16, scale bool, sp ScheduleParams) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.RepeatChunk, "repeat_chunk"); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.Gather, "gather"); err != nil {
		return nil, err
	}
	if !scale {
		if err := noKnob(name, sp.Epilogue, "epilogue"); err != nil {
			return nil, err
		}
	} else if sp.Epilogue != EpiFused && sp.Epilogue != EpiDeferred {
		return nil, badSchedule(name, "epilogue=%d: unknown epilogue placement", sp.Epilogue)
	}
	b := newPlanner(name, spec, p)
	core := b.core
	pp := foldPadding(p)
	oh, ow := pp.OutDims()
	inRowB := pp.Iw * Block
	outRowB := ow * Block

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

	inGM, err := b.input(pp.Ih * inRowB)
	if err != nil {
		return nil, err
	}
	outGM, err := core.Mem.Space(isa.GM).Alloc(oh * outRowB)
	if err != nil {
		return nil, err
	}

	// Row bands through rotating in/out areas: with two, the MTE2 load of
	// the next band overlaps the vector work of the current one.
	inRows := func(b int) int { return (b-1)*pp.Sh + pp.Kh }
	band, buffers, err := resolveBand(name, pp, ubAvail(core), oh, sp, func(b, n int) int {
		return n * (inRows(b)*inRowB + b*outRowB)
	})
	if err != nil {
		return nil, err
	}
	ub := core.Mem.Space(isa.UB)
	var inUB, outUB [2]int
	for i := 0; i < buffers; i++ {
		inUB[i] = ub.MustAlloc(inRows(band) * inRowB)
		outUB[i] = ub.MustAlloc(band * outRowB)
	}

	prog := cce.New(name)
	for oh0, bi := 0, 0; oh0 < oh; oh0, bi = oh0+band, bi+1 {
		b := min(band, oh-oh0)
		iUB, oUB := inUB[bi%buffers], outUB[bi%buffers]
		h0 := oh0 * pp.Sh
		rows := inRows(b)
		prog.EmitCopy(isa.GM, inGM+h0*inRowB, isa.UB, iUB, rows*inRowB)
		prog.EmitDup(isa.UB, oUB, b*ow*tensor.C0, init)
		if saturated {
			emitReduceRowsSaturated(prog, op, pp, iUB, oUB, b, ow)
		} else {
			emitReduceStrided(prog, op, pp, iUB, oUB, b, ow)
		}
		if scale && sp.Epilogue == EpiFused {
			prog.EmitElementwiseScalar(isa.VMuls, isa.UB, oUB, oUB, 0, b*ow*tensor.C0, avgScale(pp))
		}
		prog.EmitCopy(isa.UB, oUB, isa.GM, outGM+oh0*outRowB, b*outRowB)
	}
	if scale && sp.Epilogue == EpiDeferred {
		emitDeferredScale(prog, pp, outGM, outUB[0], band*outRowB, oh*outRowB)
	}
	b.output(outGM, 1, 1, oh, ow, tensor.C0)
	pl, err := b.seal(prog, spec)
	if err != nil {
		return nil, err
	}
	pl.bind = padTile(p)
	pl.Sched = ScheduleParams{
		Mode: sp.Mode, Band: band, Buffers: buffers,
		Saturate: resolvedSaturate(saturated), Epilogue: sp.Epilogue,
	}
	return pl, nil
}

// emitReduceStrided is the 16-lane lowering: one reduction instruction per
// (oh, ow, kh) with repetition over kw (dst repeat stride 0 accumulates
// into the output).
func emitReduceStrided(prog *cce.Program, op isa.VecOp, pp isa.ConvParams, inUB, outUB, bandOh, ow int) {
	for i := 0; i < bandOh; i++ {
		for owi := 0; owi < ow; owi++ {
			dst := isa.Operand{Buf: isa.UB, Addr: outUB + (i*ow+owi)*Block, BlkStride: 1, RepStride: 0}
			for kh := 0; kh < pp.Kh; kh++ {
				src := isa.Operand{
					Buf:       isa.UB,
					Addr:      inUB + ((i*pp.Sh+kh)*pp.Iw+owi*pp.Sw)*Block,
					BlkStride: 1,
					RepStride: 1, // next kw element each repeat
				}
				prog.EmitVec(op, dst, src, dst, 0, isa.MaskFirstN(tensor.C0), pp.Kw)
			}
		}
	}
}

// emitReduceRowsSaturated is the Sw == 1 lowering: per (oh, kh, kw) a
// single full-mask instruction reduces a whole (Ow, C0) row of consecutive
// patches.
func emitReduceRowsSaturated(prog *cce.Program, op isa.VecOp, pp isa.ConvParams, inUB, outUB, bandOh, ow int) {
	for i := 0; i < bandOh; i++ {
		dRow := outUB + i*ow*Block
		for kh := 0; kh < pp.Kh; kh++ {
			for kw := 0; kw < pp.Kw; kw++ {
				sRow := inUB + ((i*pp.Sh+kh)*pp.Iw+kw)*Block
				prog.EmitElementwise(op, isa.UB, dRow, sRow, dRow, ow*tensor.C0)
			}
		}
	}
}

// im2colPlan is the shared schedule of the Im2col-based forward kernels:
// fractal-aligned patch bands stream through the Unified Buffer. When the
// whole input slice fits L1 it is loaded once (in row chunks, so the first
// Im2Col loads overlap the transfer); otherwise the schedule streams
// per-band row windows through two rotating L1 areas, which is how layers
// like VGG16's 224x224 input run at all.
type im2colPlan struct {
	oh, ow  int
	patches int
	fracs   int
	band    int // fractals per band
	buffers int
	colUB   [2]int // (Kh*Kw, band*16, C0) im2col area
	outUB   [2]int // (band*16, C0) output area
	inGM    int
	outGM   int

	l1Banded bool
	l1Addr   int    // full-input base (l1Banded == false)
	l1Area   [2]int // rotating row windows (l1Banded == true)
	l1Rows   int    // row capacity of each window
}

// rowsForFracs bounds the input rows touched by b fractals of patches.
func rowsForFracs(p isa.ConvParams, ow, b int) int {
	patchRows := (b*isa.FractalPatches+ow-1)/ow + 1
	rows := (patchRows-1)*p.Sh + p.Kh
	if rows > p.Ih {
		rows = p.Ih
	}
	return rows
}

// patchRowRange returns the input-image rows [lo, hi) read by patches
// [pa, pb) (pb clamped to the valid patch count).
func patchRowRange(p isa.ConvParams, ow, patches, pa, pb int) (lo, hi int) {
	if pb > patches {
		pb = patches
	}
	lo = (pa/ow)*p.Sh - p.Pt
	if lo < 0 {
		lo = 0
	}
	hi = ((pb-1)/ow)*p.Sh - p.Pt + p.Kh
	if hi > p.Ih {
		hi = p.Ih
	}
	return lo, hi
}

// planIm2col sizes the shared Im2col forward schedule against the
// planner's scratch core, reserving the input/output global-memory layout.
// sp supplies the band/buffer schedule (fractal units); the L1 row-window
// banding stays automatic but clamps an explicit band it cannot stage.
func planIm2col(b *planner, p isa.ConvParams, name string, extraPerFrac int, sp ScheduleParams) (*im2colPlan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	core := b.core
	pl := &im2colPlan{}
	pl.oh, pl.ow = p.OutDims()
	pl.patches = p.Patches()
	pl.fracs = p.Fractals()
	inBytes := p.Ih * p.Iw * Block

	var err error
	if pl.inGM, err = b.input(inBytes); err != nil {
		return nil, err
	}
	if pl.outGM, err = core.Mem.Space(isa.GM).Alloc(pl.patches * Block); err != nil {
		return nil, err
	}

	perFrac := (p.Kh*p.Kw+1)*isa.FractalBytes + extraPerFrac
	pl.band, pl.buffers, err = resolveBand(name, p, ubAvail(core), pl.fracs, sp, func(b, n int) int {
		return n * b * perFrac
	})
	if err != nil {
		return nil, err
	}

	l1 := core.Mem.Space(isa.L1)
	rowB := p.Iw * Block
	if inBytes <= l1.Free() {
		pl.l1Addr = l1.MustAlloc(inBytes)
	} else {
		// Banded L1: rotating row windows sized for one patch band — two
		// for load/compute overlap when they fit, one otherwise.
		pl.l1Banded = true
		l1Buffers := 2
		l1Band := maxBand(l1.Free(), pl.band, func(b int) int {
			return 2 * rowsForFracs(p, pl.ow, b) * rowB
		})
		if l1Band == 0 {
			l1Buffers = 1
			l1Band = maxBand(l1.Free(), pl.band, func(b int) int {
				return rowsForFracs(p, pl.ow, b) * rowB
			})
			if l1Band == 0 {
				return nil, errTooLarge(name+" (L1)", p)
			}
		}
		if sp.Band > 0 && l1Band < sp.Band {
			return nil, badSchedule(name, "band=%d needs an L1 row window larger than the %d bytes available", sp.Band, l1.Free())
		}
		pl.band = l1Band
		pl.l1Rows = rowsForFracs(p, pl.ow, pl.band)
		pl.l1Area[0] = l1.MustAlloc(pl.l1Rows * rowB)
		pl.l1Area[1] = pl.l1Area[0]
		if l1Buffers == 2 {
			pl.l1Area[1] = l1.MustAlloc(pl.l1Rows * rowB)
		}
	}

	ub := core.Mem.Space(isa.UB)
	for i := 0; i < pl.buffers; i++ {
		pl.colUB[i] = ub.MustAlloc(p.Kh * p.Kw * pl.band * isa.FractalBytes)
		pl.outUB[i] = ub.MustAlloc(pl.band * isa.FractalBytes)
	}
	return pl, nil
}

// emitInputLoad moves the input slice from global memory to L1 in row
// chunks rather than one monolithic DMA, so the first Im2Col loads can
// start as soon as the rows they read have landed (the transform happens
// "while data is transferred" - the schedule must not serialize it behind
// the whole transfer). In banded-L1 mode the loads are emitted per band by
// emitBandInput instead.
func (pl *im2colPlan) emitInputLoad(prog *cce.Program, p isa.ConvParams) {
	if pl.l1Banded {
		return
	}
	rowB := p.Iw * Block
	chunkRows := max(p.Kh, (32<<10)/rowB)
	for r := 0; r < p.Ih; r += chunkRows {
		rows := min(chunkRows, p.Ih-r)
		prog.EmitCopy(isa.GM, pl.inGM+r*rowB, isa.L1, pl.l1Addr+r*rowB, rows*rowB)
	}
}

// emitBandInput returns the L1 address and row band holding the input for
// patches [f0*16, (f0+fb)*16), emitting the GM->L1 transfer when running
// in banded-L1 mode.
func (pl *im2colPlan) emitBandInput(prog *cce.Program, p isa.ConvParams, bi, f0, fb int) (srcAddr, rowBase, rows int) {
	if !pl.l1Banded {
		return pl.l1Addr, 0, 0
	}
	pa := f0 * isa.FractalPatches
	lo, hi := patchRowRange(p, pl.ow, pl.patches, pa, pa+fb*isa.FractalPatches)
	rowB := p.Iw * Block
	area := pl.l1Area[bi%2]
	prog.EmitCopy(isa.GM, pl.inGM+lo*rowB, isa.L1, area, (hi-lo)*rowB)
	return area, lo, hi - lo
}

// planMaxPoolFwdIm2col compiles the accelerated forward implementation
// (Listing 2, §V-A): the input is loaded to L1, transformed by Im2Col
// loads into the (Kh, Kw, Oh*Ow, C0) layout in the Unified Buffer, and
// reduced with vmax instructions that set all 128 mask lanes and ride the
// repeat parameter — issued only Kh*Kw times per band (modulo the repeat
// cap).
func planMaxPoolFwdIm2col(spec Spec, p isa.ConvParams, sp ScheduleParams) (*Plan, error) {
	return planIm2colForward("maxpool_fwd_im2col", spec, p, isa.VMax, fp16.NegativeInfinity, false, sp)
}

// planAvgPoolFwdIm2col compiles the Im2col-based Avgpool forward: the same
// schedule as the Maxpool variant with vadd reductions and the division
// epilogue ("the access pattern stays the same and can benefit from using
// Im2Col", §V-C).
func planAvgPoolFwdIm2col(spec Spec, p isa.ConvParams, sp ScheduleParams) (*Plan, error) {
	return planIm2colForward("avgpool_fwd_im2col", spec, p, isa.VAdd, fp16.Zero, true, sp)
}

func planIm2colForward(name string, spec Spec, p isa.ConvParams, op isa.VecOp, init fp16.Float16, scale bool, sp ScheduleParams) (*Plan, error) {
	if err := noKnob(name, sp.Saturate, "saturate"); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.Gather, "gather"); err != nil {
		return nil, err
	}
	if !scale {
		if err := noKnob(name, sp.Epilogue, "epilogue"); err != nil {
			return nil, err
		}
	} else if sp.Epilogue != EpiFused && sp.Epilogue != EpiDeferred {
		return nil, badSchedule(name, "epilogue=%d: unknown epilogue placement", sp.Epilogue)
	}
	b := newPlanner(name, spec, p)
	pl, err := planIm2col(b, p, name, 0, sp)
	if err != nil {
		return nil, err
	}
	prog := cce.New(name)
	pl.emitInputLoad(prog, p)

	for f0, bi := 0, 0; f0 < pl.fracs; f0, bi = f0+pl.band, bi+1 {
		fb := min(pl.band, pl.fracs-f0)
		colUB, outUB := pl.colUB[bi%pl.buffers], pl.outUB[bi%pl.buffers]
		src, rowBase, rows := pl.emitBandInput(prog, p, bi, f0, fb)
		prog.EmitIm2ColRange(src, isa.UB, colUB, p, 1, 0, f0*isa.FractalPatches, fb, rowBase, rows)
		prog.EmitDup(isa.UB, outUB, fb*isa.FractalPatches*tensor.C0, init)
		emitColReduce(prog, sp, op, colUB, outUB, p.Kh*p.Kw, fb)
		if scale && sp.Epilogue == EpiFused {
			prog.EmitElementwiseScalar(isa.VMuls, isa.UB, outUB, outUB, 0, fb*isa.FractalPatches*tensor.C0, avgScale(p))
		}
		valid := min(pl.patches, (f0+fb)*isa.FractalPatches) - f0*isa.FractalPatches
		prog.EmitCopy(isa.UB, outUB, isa.GM, pl.outGM+f0*isa.FractalPatches*Block, valid*Block)
	}
	if scale && sp.Epilogue == EpiDeferred {
		emitDeferredScale(prog, p, pl.outGM, pl.outUB[0], pl.band*isa.FractalBytes, pl.patches*Block)
	}
	b.output(pl.outGM, 1, 1, pl.oh, pl.ow, tensor.C0)
	plan, err := b.seal(prog, spec)
	if err != nil {
		return nil, err
	}
	plan.Sched = ScheduleParams{
		Mode: sp.Mode, Band: pl.band, Buffers: pl.buffers,
		RepeatChunk: resolvedRepeatChunk(sp), Epilogue: sp.Epilogue,
	}
	return plan, nil
}

// emitColReduce emits the kernel-position reduction over an im2col band:
// one full-mask instruction per (kh, kw) slice with repetition covering
// the whole band (the three innermost dimensions of input and output tiles
// are identical, §V-A), sliced at the schedule's repeat-chunk cap.
func emitColReduce(prog *cce.Program, sp ScheduleParams, op isa.VecOp, colUB, outUB, kk, fb int) {
	reps := fb * isa.FractalBytes / (isa.LanesPerRepeat * fp16.Bytes)
	dst := isa.Contig(isa.UB, outUB)
	for s := 0; s < kk; s++ {
		src := isa.Contig(isa.UB, colUB+s*fb*isa.FractalBytes)
		emitVecChunked(prog, sp, op, dst, src, dst, 0, isa.FullMask(), reps)
	}
}

// planMaxPoolFwdExpansion compiles the "Maxpool with expansion" baseline of
// Fig. 8: regular vector instructions — instead of Im2Col loads —
// rearrange the input into the im2col shape once it is already in the
// Unified Buffer, then the same saturated reduction runs. It beats the
// standard lowering but pays the transform as vector work in a separate
// step (§VI-B).
func planMaxPoolFwdExpansion(spec Spec, p isa.ConvParams, sp ScheduleParams) (*Plan, error) {
	const name = "maxpool_fwd_expansion"
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.Saturate, "saturate"); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.RepeatChunk, "repeat_chunk"); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.Epilogue, "epilogue"); err != nil {
		return nil, err
	}
	if sp.Gather != GatherVector && sp.Gather != GatherMTE {
		return nil, badSchedule(name, "gather=%d: unknown gather engine", sp.Gather)
	}
	mteGather := sp.Gather == GatherMTE
	b := newPlanner(name, spec, p)
	core := b.core
	pp := foldPadding(p)
	oh, ow := pp.OutDims()
	inRowB := pp.Iw * Block
	outRowB := ow * Block

	inGM, err := b.input(pp.Ih * inRowB)
	if err != nil {
		return nil, err
	}
	outGM, err := core.Mem.Space(isa.GM).Alloc(oh * outRowB)
	if err != nil {
		return nil, err
	}

	inRows := func(b int) int { return (b-1)*pp.Sh + pp.Kh }
	// With the MTE gather the input band lives in L1, not the UB, so the
	// UB requirement drops to the expansion and output areas.
	band, buffers, err := resolveBand(name, pp, ubAvail(core), oh, sp, func(b, n int) int {
		per := pp.Kh*pp.Kw*b*outRowB + b*outRowB
		if !mteGather {
			per += inRows(b) * inRowB
		}
		return n * per
	})
	if err != nil {
		return nil, err
	}
	ub := core.Mem.Space(isa.UB)
	var inUB, expUB, outUB [2]int
	if mteGather {
		// Stage the input band in L1 and gather patches from there on the
		// MTE1 pipe, keeping the Vector Unit free for the reduction.
		l1 := core.Mem.Space(isa.L1)
		l1Band := maxBand(l1.Free(), band, func(b int) int { return buffers * inRows(b) * inRowB })
		if l1Band == 0 {
			return nil, badSchedule(name, "gather=mte needs an L1 row window for %d input rows, more than the %d bytes available",
				inRows(1)*inRowB, l1.Free())
		}
		if sp.Band > 0 && l1Band < sp.Band {
			return nil, badSchedule(name, "band=%d needs an L1 row window larger than the %d bytes available", sp.Band, l1.Free())
		}
		band = l1Band
		for i := 0; i < buffers; i++ {
			inUB[i] = l1.MustAlloc(inRows(band) * inRowB)
		}
	}
	for i := 0; i < buffers; i++ {
		if !mteGather {
			inUB[i] = ub.MustAlloc(inRows(band) * inRowB)
		}
		expUB[i] = ub.MustAlloc(pp.Kh * pp.Kw * band * outRowB)
		outUB[i] = ub.MustAlloc(band * outRowB)
	}

	prog := cce.New(name)
	for oh0, bi := 0, 0; oh0 < oh; oh0, bi = oh0+band, bi+1 {
		b := min(band, oh-oh0)
		iUB, eUB, oUB := inUB[bi%buffers], expUB[bi%buffers], outUB[bi%buffers]
		srcBuf := isa.UB
		if mteGather {
			srcBuf = isa.L1
		}
		prog.EmitCopy(isa.GM, inGM+oh0*pp.Sh*inRowB, srcBuf, iUB, inRows(b)*inRowB)
		// Expansion: one strided row gather per (kh, kw, oh) — vcopy on the
		// Vector pipe, or a strided DMA burst on MTE1.
		bandPatches := b * ow
		for kh := 0; kh < pp.Kh; kh++ {
			for kw := 0; kw < pp.Kw; kw++ {
				slice := eUB + (kh*pp.Kw+kw)*bandPatches*Block
				for i := 0; i < b; i++ {
					src := inUB0RowAddr(iUB, pp, i, kh, kw)
					if mteGather {
						prog.Emit(&isa.CopyInstr{
							SrcBuf: isa.L1, SrcAddr: src,
							DstBuf: isa.UB, DstAddr: slice + i*ow*Block,
							NBurst: ow, BurstBytes: Block,
							SrcGap: (pp.Sw - 1) * Block, DstGap: 0,
						})
					} else {
						emitStridedRowCopy(prog, slice+i*ow*Block, src, ow, pp.Sw)
					}
				}
			}
		}
		prog.EmitDup(isa.UB, oUB, bandPatches*tensor.C0, fp16.NegativeInfinity)
		for s := 0; s < pp.Kh*pp.Kw; s++ {
			prog.EmitElementwise(isa.VMax, isa.UB, oUB, eUB+s*bandPatches*Block, oUB, bandPatches*tensor.C0)
		}
		prog.EmitCopy(isa.UB, oUB, isa.GM, outGM+oh0*outRowB, b*outRowB)
		_ = bi
	}
	b.output(outGM, 1, 1, oh, ow, tensor.C0)
	pl, err := b.seal(prog, spec)
	if err != nil {
		return nil, err
	}
	pl.bind = padTile(p)
	pl.Sched = ScheduleParams{Mode: sp.Mode, Band: band, Buffers: buffers, Gather: sp.Gather}
	return pl, nil
}

func inUB0RowAddr(inUB int, pp isa.ConvParams, localOh, kh, kw int) int {
	return inUB + ((localOh*pp.Sh+kh)*pp.Iw+kw)*Block
}

// emitStridedRowCopy copies `blocks` C0 blocks whose source is strided by
// srcStride blocks (gathering one patch element per consecutive patch of a
// row) into a contiguous destination, saturating the mask.
func emitStridedRowCopy(prog *cce.Program, dstAddr, srcAddr, blocks, srcStride int) {
	full := blocks / isa.BlocksPerRepeat
	if full > 0 {
		src := isa.Operand{Buf: isa.UB, Addr: srcAddr, BlkStride: srcStride, RepStride: isa.BlocksPerRepeat * srcStride}
		prog.EmitVec(isa.VCopy, isa.Contig(isa.UB, dstAddr), src, isa.Operand{}, 0, isa.FullMask(), full)
	}
	if tail := blocks % isa.BlocksPerRepeat; tail != 0 {
		src := isa.Operand{
			Buf:       isa.UB,
			Addr:      srcAddr + full*isa.BlocksPerRepeat*srcStride*isa.BlockBytes,
			BlkStride: srcStride,
			RepStride: isa.BlocksPerRepeat * srcStride,
		}
		dst := isa.Contig(isa.UB, dstAddr+full*isa.LanesPerRepeat*fp16.Bytes)
		prog.EmitVec(isa.VCopy, dst, src, isa.Operand{}, 0, isa.MaskFirstN(tail*isa.ElemsPerBlock), 1)
	}
}

// planMaxPoolFwdXYSplit compiles the split reduction: first across the
// width, then across the height, reusing the first reduction (Lai et al.,
// §VI-B). TVM cannot compute in place, so the width reduction materializes
// an intermediate (Ih, Ow, C0) tensor. The width pass is strided
// (16-lane); the height pass is contiguous and saturates the mask.
func planMaxPoolFwdXYSplit(spec Spec, p isa.ConvParams, sp ScheduleParams) (*Plan, error) {
	const name = "maxpool_fwd_xysplit"
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.Saturate, "saturate"); err != nil {
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
	core := b.core
	pp := foldPadding(p)
	oh, ow := pp.OutDims()
	inRowB := pp.Iw * Block
	outRowB := ow * Block

	inGM, err := b.input(pp.Ih * inRowB)
	if err != nil {
		return nil, err
	}
	outGM, err := core.Mem.Space(isa.GM).Alloc(oh * outRowB)
	if err != nil {
		return nil, err
	}

	inRows := func(b int) int { return (b-1)*pp.Sh + pp.Kh }
	band, buffers, err := resolveBand(name, pp, ubAvail(core), oh, sp, func(b, n int) int {
		return n * (inRows(b)*inRowB + inRows(b)*outRowB + b*outRowB)
	})
	if err != nil {
		return nil, err
	}
	ub := core.Mem.Space(isa.UB)
	var inUB, tmpUB, outUB [2]int
	for i := 0; i < buffers; i++ {
		inUB[i] = ub.MustAlloc(inRows(band) * inRowB)
		tmpUB[i] = ub.MustAlloc(inRows(band) * outRowB)
		outUB[i] = ub.MustAlloc(band * outRowB)
	}

	prog := cce.New("maxpool_fwd_xysplit")
	for oh0, bi := 0, 0; oh0 < oh; oh0, bi = oh0+band, bi+1 {
		b := min(band, oh-oh0)
		iUB, tUB, oUB := inUB[bi%buffers], tmpUB[bi%buffers], outUB[bi%buffers]
		rows := inRows(b)
		prog.EmitCopy(isa.GM, inGM+oh0*pp.Sh*inRowB, isa.UB, iUB, rows*inRowB)
		// X pass: tmp[r, ow] = max over kw of in[r, ow*Sw+kw] (strided).
		prog.EmitDup(isa.UB, tUB, rows*ow*tensor.C0, fp16.NegativeInfinity)
		for r := 0; r < rows; r++ {
			for owi := 0; owi < ow; owi++ {
				dst := isa.Operand{Buf: isa.UB, Addr: tUB + (r*ow+owi)*Block, BlkStride: 1, RepStride: 0}
				src := isa.Operand{Buf: isa.UB, Addr: iUB + (r*pp.Iw+owi*pp.Sw)*Block, BlkStride: 1, RepStride: 1}
				prog.EmitVec(isa.VMax, dst, src, dst, 0, isa.MaskFirstN(tensor.C0), pp.Kw)
			}
		}
		// Y pass: out[i] = max over kh of tmp[i*Sh+kh] (contiguous rows).
		prog.EmitDup(isa.UB, oUB, b*ow*tensor.C0, fp16.NegativeInfinity)
		for i := 0; i < b; i++ {
			dRow := oUB + i*ow*Block
			for kh := 0; kh < pp.Kh; kh++ {
				sRow := tUB + (i*pp.Sh+kh)*ow*Block
				prog.EmitElementwise(isa.VMax, isa.UB, dRow, sRow, dRow, ow*tensor.C0)
			}
		}
		prog.EmitCopy(isa.UB, oUB, isa.GM, outGM+oh0*outRowB, b*outRowB)
	}
	b.output(outGM, 1, 1, oh, ow, tensor.C0)
	pl, err := b.seal(prog, spec)
	if err != nil {
		return nil, err
	}
	pl.bind = padTile(p)
	pl.Sched = ScheduleParams{Mode: sp.Mode, Band: band, Buffers: buffers}
	return pl, nil
}
