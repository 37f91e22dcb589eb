package isa

import "fmt"

// Im2Col repeat modes (paper §III-C).
const (
	// Im2ColRepeatKernel (mode 0) reissues for the next (xk, yk) position
	// inside the kernel, continuing to the next c1 index when (xk, yk)
	// wraps: the loop order [c1, (xk, yk)].
	Im2ColRepeatKernel = 0
	// Im2ColRepeatPatches (mode 1) reissues for the next (x, y) position
	// after skipping the 16 currently selected patches: the loop [(x, y)].
	Im2ColRepeatPatches = 1
)

// Im2ColInstr is the SCU's Im2Col load: it reads an NC1HWC0 tile from L1
// and deposits data-fractals (16 patches x C0) into L0A, L0B or the UB,
// performing the im2col transform while the data moves (paper §III-C).
//
// One issue loads one fractal: the 16 consecutive patches starting at
// linear patch index Patch0 (row-major over the (Oh, Ow) patch grid), the
// element at kernel-relative position (Xk, Yk) of each patch, channel slice
// C1Idx. Patches whose (Xk, Yk) element falls in the zero padding produce
// zero rows; patch indices beyond Oh*Ow produce zero rows as well.
// Successive Repeat iterations advance per RepeatMode and write fractals
// contiguously at Dst.
type Im2ColInstr struct {
	SrcBuf  BufID // must be L1
	SrcAddr int   // base of the (C1Len, Ih, Iw, C0) tile in L1
	DstBuf  BufID // L0A, L0B or UB
	DstAddr int

	P      ConvParams
	C1Len  int // C1 extent of the tile at SrcAddr
	C1Idx  int // starting c1 slice
	Xk, Yk int // starting position inside the patch
	Patch0 int // starting linear patch index (the (x, y) of the paper)

	// RowBase/Rows select a horizontal band of the source image: the L1
	// tile at SrcAddr holds image rows [RowBase, RowBase+Rows) for each
	// c1 slice. Rows == 0 means the full image. Banding lets schedules
	// stream inputs larger than L1 (e.g. VGG16's 224x224 layer).
	RowBase int
	Rows    int

	RepeatMode int // Im2ColRepeatKernel or Im2ColRepeatPatches
	Repeat     int // total fractals loaded (>= 1)
}

// EffRows returns the number of image rows present in the source tile.
func (im *Im2ColInstr) EffRows() int {
	if im.Rows == 0 {
		return im.P.Ih
	}
	return im.Rows
}

// Pipe returns PipeMTE1: Im2Col acts as a load between local buffers.
func (im *Im2ColInstr) Pipe() Pipe { return PipeMTE1 }

// Cycles charges issue overhead plus a per-fractal transform cost.
func (im *Im2ColInstr) Cycles(c *CostModel) int64 {
	return c.MteIssue + int64(im.Repeat)*c.Im2ColFractal
}

// Reads returns the source rows the load actually touches. In repeat mode
// 1 (fixed kernel position, advancing patches) that is the row band covered
// by the selected patches — precision here lets a banded schedule overlap
// Im2Col loads with the MTE2 transfer filling later L1 rows. Mode 0 walks
// kernel positions and c1 slices, so it conservatively claims the whole
// tile.
func (im *Im2ColInstr) Reads() Regions {
	rowBytes := im.P.Iw * FractalC0 * 2
	rows := im.EffRows()
	if im.RepeatMode != Im2ColRepeatPatches {
		size := im.C1Len * rows * rowBytes
		return one(Region{Buf: im.SrcBuf, Off: im.SrcAddr, End: im.SrcAddr + size})
	}
	_, ow := im.P.OutDims()
	pEnd := im.Patch0 + im.Repeat*FractalPatches
	if max := im.P.Patches(); pEnd > max {
		pEnd = max
	}
	lo := (im.Patch0/ow)*im.P.Sh - im.P.Pt
	if lo < im.RowBase {
		lo = im.RowBase
	}
	hi := ((pEnd-1)/ow)*im.P.Sh - im.P.Pt + im.P.Kh
	if hi > im.RowBase+rows {
		hi = im.RowBase + rows
	}
	base := im.SrcAddr + (im.C1Idx*rows-im.RowBase)*rowBytes
	return one(Region{Buf: im.SrcBuf, Off: base + lo*rowBytes, End: base + hi*rowBytes})
}

// Writes returns the contiguous fractal output span.
func (im *Im2ColInstr) Writes() Regions {
	return one(Region{Buf: im.DstBuf, Off: im.DstAddr, End: im.DstAddr + im.Repeat*FractalBytes})
}

// Validate checks structural constraints.
func (im *Im2ColInstr) Validate() error {
	if err := im.P.Validate(); err != nil {
		return err
	}
	switch {
	case im.SrcBuf != L1:
		return fmt.Errorf("isa: Im2Col source must be L1, got %v", im.SrcBuf)
	case im.DstBuf != L0A && im.DstBuf != L0B && im.DstBuf != UB:
		return fmt.Errorf("isa: Im2Col destination must be L0A/L0B/UB, got %v", im.DstBuf)
	case im.Repeat < 1 || im.Repeat > MaxRepeat:
		return fmt.Errorf("isa: Im2Col repeat %d out of range [1,%d]", im.Repeat, MaxRepeat)
	case im.RepeatMode != Im2ColRepeatKernel && im.RepeatMode != Im2ColRepeatPatches:
		return fmt.Errorf("isa: Im2Col repeat mode %d", im.RepeatMode)
	case im.C1Len < 1 || im.C1Idx < 0 || im.C1Idx >= im.C1Len:
		return fmt.Errorf("isa: Im2Col c1 index %d of %d", im.C1Idx, im.C1Len)
	case im.Xk < 0 || im.Xk >= im.P.Kh || im.Yk < 0 || im.Yk >= im.P.Kw:
		return fmt.Errorf("isa: Im2Col kernel position (%d,%d)", im.Xk, im.Yk)
	case im.Patch0 < 0 || im.Patch0 >= im.P.Patches():
		return fmt.Errorf("isa: Im2Col starting patch %d of %d", im.Patch0, im.P.Patches())
	case im.Patch0%FractalPatches != 0:
		return fmt.Errorf("isa: Im2Col starting patch %d not fractal aligned", im.Patch0)
	case im.RowBase < 0 || im.Rows < 0 || im.RowBase+im.EffRows() > im.P.Ih:
		return fmt.Errorf("isa: Im2Col row band [%d,%d) exceeds image height %d",
			im.RowBase, im.RowBase+im.EffRows(), im.P.Ih)
	}
	return nil
}

func (im *Im2ColInstr) String() string {
	return fmt.Sprintf("img2col mode=%d rpt=%d c1=%d k=(%d,%d) p0=%d -> %v+%d",
		im.RepeatMode, im.Repeat, im.C1Idx, im.Xk, im.Yk, im.Patch0, im.DstBuf, im.DstAddr)
}

// Col2ImInstr is the backward operator of Im2Col, executed on the Vector
// Unit with the UB as both source and destination (paper §III-D, Fig. 6):
// for each input fractal it (1) loads the corresponding output elements in
// an Im2Col manner, (2) adds the input fractal, (3) stores the sum back.
// The destination tile must be zero initialized by the kernel. Only repeat
// mode 1 exists: each repeat advances by 16 patches.
type Col2ImInstr struct {
	SrcBuf  BufID // must be UB (fractal sequence)
	SrcAddr int
	DstBuf  BufID // must be UB ((C1Len, Ih, Iw, C0) tile)
	DstAddr int

	P      ConvParams
	C1Len  int
	C1Idx  int
	Xk, Yk int
	Patch0 int

	// RowBase/Rows select a horizontal band of the output image: the tile
	// at DstAddr holds image rows [RowBase, RowBase+Rows) for each c1
	// slice. Rows == 0 means the full image. Banding is what lets kernels
	// merge into outputs larger than the Unified Buffer.
	RowBase int
	Rows    int

	Repeat int
}

// EffRows returns the number of image rows present in the destination tile.
func (ci *Col2ImInstr) EffRows() int {
	if ci.Rows == 0 {
		return ci.P.Ih
	}
	return ci.Rows
}

// Pipe returns PipeVector: Col2Im is a vector instruction (paper §III-D).
func (ci *Col2ImInstr) Pipe() Pipe { return PipeVector }

// Cycles charges issue plus a per-fractal read-add-write cost.
func (ci *Col2ImInstr) Cycles(c *CostModel) int64 {
	return c.VecIssue + int64(ci.Repeat)*c.Col2ImFractal
}

// Reads returns the input fractal span plus the destination tile (it is a
// read-modify-write).
func (ci *Col2ImInstr) Reads() (rs Regions) {
	size := ci.C1Len * ci.EffRows() * ci.P.Iw * FractalC0 * 2
	rs.add(Region{Buf: ci.SrcBuf, Off: ci.SrcAddr, End: ci.SrcAddr + ci.Repeat*FractalBytes})
	rs.add(Region{Buf: ci.DstBuf, Off: ci.DstAddr, End: ci.DstAddr + size})
	return rs
}

// Writes returns the destination tile span.
func (ci *Col2ImInstr) Writes() Regions {
	size := ci.C1Len * ci.EffRows() * ci.P.Iw * FractalC0 * 2
	return one(Region{Buf: ci.DstBuf, Off: ci.DstAddr, End: ci.DstAddr + size})
}

// Validate checks structural constraints.
func (ci *Col2ImInstr) Validate() error {
	if err := ci.P.Validate(); err != nil {
		return err
	}
	switch {
	case ci.SrcBuf != UB || ci.DstBuf != UB:
		return fmt.Errorf("isa: Col2Im operates UB->UB, got %v->%v", ci.SrcBuf, ci.DstBuf)
	case ci.Repeat < 1 || ci.Repeat > MaxRepeat:
		return fmt.Errorf("isa: Col2Im repeat %d out of range [1,%d]", ci.Repeat, MaxRepeat)
	case ci.C1Len < 1 || ci.C1Idx < 0 || ci.C1Idx >= ci.C1Len:
		return fmt.Errorf("isa: Col2Im c1 index %d of %d", ci.C1Idx, ci.C1Len)
	case ci.Xk < 0 || ci.Xk >= ci.P.Kh || ci.Yk < 0 || ci.Yk >= ci.P.Kw:
		return fmt.Errorf("isa: Col2Im kernel position (%d,%d)", ci.Xk, ci.Yk)
	case ci.Patch0 < 0 || ci.Patch0 >= ci.P.Patches():
		return fmt.Errorf("isa: Col2Im starting patch %d of %d", ci.Patch0, ci.P.Patches())
	case ci.Patch0%FractalPatches != 0:
		return fmt.Errorf("isa: Col2Im starting patch %d not fractal aligned", ci.Patch0)
	case ci.RowBase < 0 || ci.Rows < 0 || ci.RowBase+ci.EffRows() > ci.P.Ih:
		return fmt.Errorf("isa: Col2Im row band [%d,%d) exceeds image height %d",
			ci.RowBase, ci.RowBase+ci.EffRows(), ci.P.Ih)
	}
	return nil
}

func (ci *Col2ImInstr) String() string {
	return fmt.Sprintf("col2img rpt=%d c1=%d k=(%d,%d) p0=%d -> %v+%d",
		ci.Repeat, ci.C1Idx, ci.Xk, ci.Yk, ci.Patch0, ci.DstBuf, ci.DstAddr)
}

// MmadInstr multiplies fractal matrices on the Cube Unit: C (M x N
// fractals, fp32 in L0C) += A (M x K fractals in L0A) x B (K x N fractals
// in L0B). Each fractal is a 16x16 Float16 tile; the Cube multiplies two
// data-fractals per clock cycle (paper §III-A).
type MmadInstr struct {
	AAddr, BAddr, CAddr int // byte offsets in L0A/L0B/L0C
	M, K, N             int // extents in fractal units
	Accumulate          bool
}

// Pipe returns PipeCube.
func (mm *MmadInstr) Pipe() Pipe { return PipeCube }

// Cycles charges issue plus M*K*N fractal-pair multiplications at the
// Cube's rate of CubeFractalPairs pairs per cycle.
func (mm *MmadInstr) Cycles(c *CostModel) int64 {
	pairs := int64(mm.M) * int64(mm.K) * int64(mm.N)
	return c.CubeIssue + (pairs+c.CubeFractalPairs-1)/c.CubeFractalPairs
}

// Reads returns the operand spans (plus C when accumulating).
func (mm *MmadInstr) Reads() (rs Regions) {
	rs.add(Region{Buf: L0A, Off: mm.AAddr, End: mm.AAddr + mm.M*mm.K*FractalBytes})
	rs.add(Region{Buf: L0B, Off: mm.BAddr, End: mm.BAddr + mm.K*mm.N*FractalBytes})
	if mm.Accumulate {
		rs.add(Region{Buf: L0C, Off: mm.CAddr, End: mm.CAddr + mm.M*mm.N*FractalPatches*FractalC0*4})
	}
	return rs
}

// Writes returns the fp32 accumulator span.
func (mm *MmadInstr) Writes() Regions {
	return one(Region{Buf: L0C, Off: mm.CAddr, End: mm.CAddr + mm.M*mm.N*FractalPatches*FractalC0*4})
}

// Validate checks structural constraints.
func (mm *MmadInstr) Validate() error {
	if mm.M < 1 || mm.K < 1 || mm.N < 1 {
		return fmt.Errorf("isa: mmad dims (%d,%d,%d)", mm.M, mm.K, mm.N)
	}
	if mm.AAddr < 0 || mm.BAddr < 0 || mm.CAddr < 0 {
		return fmt.Errorf("isa: negative mmad address")
	}
	return nil
}

func (mm *MmadInstr) String() string {
	return fmt.Sprintf("mmad %dx%dx%d acc=%v", mm.M, mm.K, mm.N, mm.Accumulate)
}

// TransposeInstr is the SCU's matrix-tile transposition (listed among the
// Storage Conversion Unit's layout transforms in §III-A): it moves Repeat
// data-fractals from L1 to L0A or L0B, transposing each 16x16 tile on the
// way. Source fractals are contiguous; destination fractals are DstStride
// bytes apart (DstStride 0 means densely packed).
type TransposeInstr struct {
	SrcBuf  BufID // must be L1
	SrcAddr int
	DstBuf  BufID // L0A or L0B
	DstAddr int
	// DstStride is the byte distance between consecutive destination
	// fractals; 0 means FractalBytes (dense).
	DstStride int
	Repeat    int
}

// EffDstStride returns the destination stride in bytes.
func (tr *TransposeInstr) EffDstStride() int {
	if tr.DstStride == 0 {
		return FractalBytes
	}
	return tr.DstStride
}

// Pipe returns PipeMTE1: the transform happens during the buffer move.
func (tr *TransposeInstr) Pipe() Pipe { return PipeMTE1 }

// Cycles charges issue plus a per-fractal transform cost (same rate as the
// Im2Col gather: the SCU touches every element once).
func (tr *TransposeInstr) Cycles(c *CostModel) int64 {
	return c.MteIssue + int64(tr.Repeat)*c.Im2ColFractal
}

// Reads returns the contiguous source span.
func (tr *TransposeInstr) Reads() Regions {
	return one(Region{Buf: tr.SrcBuf, Off: tr.SrcAddr, End: tr.SrcAddr + tr.Repeat*FractalBytes})
}

// Writes returns the strided destination span.
func (tr *TransposeInstr) Writes() Regions {
	end := tr.DstAddr + (tr.Repeat-1)*tr.EffDstStride() + FractalBytes
	return one(Region{Buf: tr.DstBuf, Off: tr.DstAddr, End: end})
}

// Validate checks structural constraints.
func (tr *TransposeInstr) Validate() error {
	switch {
	case tr.SrcBuf != L1:
		return fmt.Errorf("isa: transpose source must be L1, got %v", tr.SrcBuf)
	case tr.DstBuf != L0A && tr.DstBuf != L0B:
		return fmt.Errorf("isa: transpose destination must be L0A/L0B, got %v", tr.DstBuf)
	case tr.Repeat < 1 || tr.Repeat > MaxRepeat:
		return fmt.Errorf("isa: transpose repeat %d out of range [1,%d]", tr.Repeat, MaxRepeat)
	case tr.SrcAddr < 0 || tr.DstAddr < 0 || tr.DstStride < 0:
		return fmt.Errorf("isa: negative transpose address/stride")
	}
	return nil
}

func (tr *TransposeInstr) String() string {
	return fmt.Sprintf("transpose rpt=%d %v+%d -> %v+%d", tr.Repeat, tr.SrcBuf, tr.SrcAddr, tr.DstBuf, tr.DstAddr)
}
