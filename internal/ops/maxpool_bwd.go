package ops

import (
	"fmt"

	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/scu"
	"davinci/internal/tensor"
)

// bwdPlan is the shared schedule of the backward kernels: fractal-aligned
// patch bands of the argmax mask and gradients stream through the Unified
// Buffer and are merged into a row band of the output image. Bands at the
// boundary re-load the previously written overlap rows from global memory,
// so overlapping patches accumulate correctly across bands.
type bwdPlan struct {
	oh, ow  int
	patches int
	fracs   int
	padded  int
	kk      int

	band    int // fractals per band
	buffers int
	maskUB  [2]int
	gradUB  [2]int
	outUB   int
	outRows int // rows the out area can hold

	maskGM, gradGM, outGM int
}

// bandRows returns the output-image row range [lo, hi) touched by patches
// [pa, pb) (pb exclusive, clamped to valid patches).
func (pl *bwdPlan) bandRows(p isa.ConvParams, pa, pb int) (lo, hi int) {
	return patchRowRange(p, pl.ow, pl.patches, pa, pb)
}

// bindBackward validates the (mask, grad) inputs of a backward plan.
func bindBackward(name string, p isa.ConvParams) bindFunc {
	oh, ow := p.OutDims()
	padded := p.PaddedPatches()
	return func(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
		if err := wantInputs(name, 2, inputs); err != nil {
			return nil, err
		}
		mask, grad := inputs[0], inputs[1]
		wantMask := []int{1, 1, p.Kh, p.Kw, padded, tensor.C0}
		if len(mask.Shape) != 6 || mask.Shape[2] != p.Kh || mask.Shape[3] != p.Kw || mask.Shape[4] != padded {
			return nil, fmt.Errorf("ops: %s: mask shape %v, want %v", name, mask.Shape, wantMask)
		}
		if len(grad.Shape) != 5 || grad.Shape[2] != oh || grad.Shape[3] != ow {
			return nil, fmt.Errorf("ops: %s: grad shape %v, want (1,1,%d,%d,%d)", name, grad.Shape, oh, ow, tensor.C0)
		}
		return inputs, nil
	}
}

// planBackward sizes the shared backward schedule against the planner's
// scratch core, reserving the mask/grad/output global-memory layout. sp
// supplies the band/buffer schedule in fractal units.
func planBackward(b *planner, p isa.ConvParams, name string, sp ScheduleParams) (*bwdPlan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.Saturate, "saturate"); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.Epilogue, "epilogue"); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.Gather, "gather"); err != nil {
		return nil, err
	}
	core := b.core
	pl := &bwdPlan{}
	pl.oh, pl.ow = p.OutDims()
	pl.patches = p.Patches()
	pl.fracs = p.Fractals()
	pl.padded = p.PaddedPatches()
	pl.kk = p.Kh * p.Kw

	var err error
	if pl.maskGM, err = b.input(pl.kk * pl.padded * Block); err != nil {
		return nil, err
	}
	if pl.gradGM, err = b.input(pl.oh * pl.ow * Block); err != nil {
		return nil, err
	}
	// Output starts zeroed (plan replays run in freshly zeroed global
	// memory, and Col2Im requires a zero-initialized output, §III-D).
	if pl.outGM, err = core.Mem.Space(isa.GM).Alloc(p.Ih * p.Iw * Block); err != nil {
		return nil, err
	}

	inRowB := p.Iw * Block
	// Worst-case output rows touched by b fractals of patches.
	rowsFor := func(b int) int {
		patchRows := (b*isa.FractalPatches+pl.ow-1)/pl.ow + 1
		return min(p.Ih, (patchRows-1)*p.Sh+p.Kh)
	}
	pl.band, pl.buffers, err = resolveBand(name, p, ubAvail(core), pl.fracs, sp, func(b, n int) int {
		return n*(pl.kk+1)*b*isa.FractalBytes + rowsFor(b)*inRowB
	})
	if err != nil {
		return nil, err
	}
	ub := core.Mem.Space(isa.UB)
	for i := 0; i < pl.buffers; i++ {
		pl.maskUB[i] = ub.MustAlloc(pl.kk * pl.band * isa.FractalBytes)
		pl.gradUB[i] = ub.MustAlloc(pl.band * isa.FractalBytes)
	}
	pl.outRows = rowsFor(pl.band)
	pl.outUB = ub.MustAlloc(pl.outRows * inRowB)
	return pl, nil
}

// emitBandLoads loads one band of mask slices and gradients, multiplies
// them (Listing 3: one full-mask vmul per (kh, kw) slice, sliced at the
// schedule's repeat-chunk cap), and prepares the output row band,
// re-loading boundary rows written by the previous band. Returns the row
// range of the band.
func (pl *bwdPlan) emitBandLoads(prog *cce.Program, p isa.ConvParams, sp ScheduleParams, f0, fb, prevHi, bi int) (lo, hi int) {
	maskUB := pl.maskUB[bi%pl.buffers]
	gradUB := pl.gradUB[bi%pl.buffers]
	pa := f0 * isa.FractalPatches
	bandPatches := fb * isa.FractalPatches
	valid := min(pl.patches, pa+bandPatches) - pa
	inRowB := p.Iw * Block

	// Mask band: Kh*Kw slices, each a contiguous run of fb fractals.
	prog.Emit(&isa.CopyInstr{
		SrcBuf: isa.GM, SrcAddr: pl.maskGM + pa*Block,
		DstBuf: isa.UB, DstAddr: maskUB,
		NBurst: pl.kk, BurstBytes: bandPatches * Block,
		SrcGap: (pl.padded - bandPatches) * Block, DstGap: 0,
	})
	// Gradient band (zero the fractal tail beyond the last valid patch).
	prog.EmitCopy(isa.GM, pl.gradGM+pa*Block, isa.UB, gradUB, valid*Block)
	if tail := bandPatches - valid; tail > 0 {
		prog.EmitDup(isa.UB, gradUB+valid*Block, tail*tensor.C0, fp16.Zero)
	}
	// Multiply: mask-gradient product, in place over the mask slices.
	reps := fb * 2
	for s := 0; s < pl.kk; s++ {
		slice := isa.Contig(isa.UB, maskUB+s*fb*isa.FractalBytes)
		emitVecChunked(prog, sp, isa.VMul, slice, slice, isa.Contig(isa.UB, gradUB), 0, isa.FullMask(), reps)
	}
	// Output row band: re-load overlap rows, zero fresh rows.
	lo, hi = pl.bandRows(p, pa, pa+bandPatches)
	overlap := max(0, prevHi-lo)
	if overlap > 0 {
		prog.EmitCopy(isa.GM, pl.outGM+lo*inRowB, isa.UB, pl.outUB, overlap*inRowB)
	}
	if fresh := hi - lo - overlap; fresh > 0 {
		prog.EmitDup(isa.UB, pl.outUB+overlap*inRowB, fresh*p.Iw*tensor.C0, fp16.Zero)
	}
	return lo, hi
}

// planMaxPoolBwdStandard compiles the standard TVM Maxpool backward
// (Listing 3, §V-B): the mask-gradient multiplication runs well on the
// Vector Unit, but the merge step's scattered access pattern forces one
// vadd per (kh, kw, oh, ow) with only 16 mask lanes set and no repetition.
func planMaxPoolBwdStandard(spec Spec, p isa.ConvParams, sp ScheduleParams) (*Plan, error) {
	const name = "maxpool_bwd_standard"
	b := newPlanner(name, spec, p)
	pl, err := planBackward(b, p, name, sp)
	if err != nil {
		return nil, err
	}
	prog := cce.New(name)
	inRowB := p.Iw * Block
	prevHi := 0
	for f0, bi := 0, 0; f0 < pl.fracs; f0, bi = f0+pl.band, bi+1 {
		fb := min(pl.band, pl.fracs-f0)
		lo, hi := pl.emitBandLoads(prog, p, sp, f0, fb, prevHi, bi)
		maskUB := pl.maskUB[bi%pl.buffers]
		pa := f0 * isa.FractalPatches
		validEnd := min(pl.patches, pa+fb*isa.FractalPatches)

		// Merge: one 16-lane vadd per (kh, kw, patch) — "the vadd
		// instructions only set 16 elements of the vector mask ... and
		// repetition is not used" (§V-B).
		for xk := 0; xk < p.Kh; xk++ {
			for yk := 0; yk < p.Kw; yk++ {
				slice := maskUB + (xk*p.Kw+yk)*fb*isa.FractalBytes
				for pt := pa; pt < validEnd; pt++ {
					h, w, pad := scu.SourceCoord(p, pt, xk, yk)
					if pad {
						continue
					}
					dst := isa.Operand{Buf: isa.UB, Addr: pl.outUB + ((h-lo)*p.Iw+w)*Block, BlkStride: 1, RepStride: 0}
					src := isa.Operand{Buf: isa.UB, Addr: slice + (pt-pa)*Block, BlkStride: 1, RepStride: 0}
					prog.EmitVec(isa.VAdd, dst, dst, src, 0, isa.MaskFirstN(tensor.C0), 1)
				}
			}
		}
		prog.EmitCopy(isa.UB, pl.outUB, isa.GM, pl.outGM+lo*inRowB, (hi-lo)*inRowB)
		prevHi = hi
	}
	b.output(pl.outGM, 1, 1, p.Ih, p.Iw, tensor.C0)
	plan, err := b.seal(prog, spec)
	if err != nil {
		return nil, err
	}
	plan.bind = bindBackward(name, p)
	plan.Sched = ScheduleParams{
		Mode: sp.Mode, Band: pl.band, Buffers: pl.buffers, RepeatChunk: resolvedRepeatChunk(sp),
	}
	return plan, nil
}

// planMaxPoolBwdCol2im compiles the accelerated backward (§V-B): the merge
// step is exactly the Col2im operation, so Col2Im instructions replace the
// 16-lane vadds — vectorizing over a whole fractal at a time with
// repetition over the band, issued only Kh*Kw times per band.
func planMaxPoolBwdCol2im(spec Spec, p isa.ConvParams, sp ScheduleParams) (*Plan, error) {
	const name = "maxpool_bwd_col2im"
	b := newPlanner(name, spec, p)
	pl, err := planBackward(b, p, name, sp)
	if err != nil {
		return nil, err
	}
	prog := cce.New(name)
	inRowB := p.Iw * Block
	prevHi := 0
	for f0, bi := 0, 0; f0 < pl.fracs; f0, bi = f0+pl.band, bi+1 {
		fb := min(pl.band, pl.fracs-f0)
		lo, hi := pl.emitBandLoads(prog, p, sp, f0, fb, prevHi, bi)
		maskUB := pl.maskUB[bi%pl.buffers]
		prog.EmitCol2ImRange(maskUB, pl.outUB, p, f0*isa.FractalPatches, fb, lo, hi-lo)
		prog.EmitCopy(isa.UB, pl.outUB, isa.GM, pl.outGM+lo*inRowB, (hi-lo)*inRowB)
		prevHi = hi
	}
	b.output(pl.outGM, 1, 1, p.Ih, p.Iw, tensor.C0)
	plan, err := b.seal(prog, spec)
	if err != nil {
		return nil, err
	}
	plan.bind = bindBackward(name, p)
	plan.Sched = ScheduleParams{
		Mode: sp.Mode, Band: pl.band, Buffers: pl.buffers, RepeatChunk: resolvedRepeatChunk(sp),
	}
	return plan, nil
}
