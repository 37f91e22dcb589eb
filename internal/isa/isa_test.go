package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOutDims(t *testing.T) {
	// The Fig. 5 example: 8x8 input, 2x2 kernel, 2x2 stride, no padding.
	p := ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	oh, ow := p.OutDims()
	if oh != 4 || ow != 4 {
		t.Errorf("OutDims = (%d,%d), want (4,4)", oh, ow)
	}
	if p.Patches() != 16 || p.Fractals() != 1 || p.PaddedPatches() != 16 {
		t.Errorf("Patches=%d Fractals=%d Padded=%d", p.Patches(), p.Fractals(), p.PaddedPatches())
	}
	// InceptionV3 largest input: 147x147, k=3, s=2, no padding -> 73x73.
	p = ConvParams{Ih: 147, Iw: 147, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	oh, ow = p.OutDims()
	if oh != 73 || ow != 73 {
		t.Errorf("InceptionV3 OutDims = (%d,%d), want (73,73)", oh, ow)
	}
	// With padding: 5x5, k=3, s=1, pad 1 -> 5x5 (SAME).
	p = ConvParams{Ih: 5, Iw: 5, Kh: 3, Kw: 3, Sh: 1, Sw: 1, Pt: 1, Pb: 1, Pl: 1, Pr: 1}
	oh, ow = p.OutDims()
	if oh != 5 || ow != 5 {
		t.Errorf("SAME OutDims = (%d,%d), want (5,5)", oh, ow)
	}
}

func TestConvParamsValidate(t *testing.T) {
	good := ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("good params rejected: %v", err)
	}
	bad := []ConvParams{
		{Ih: 0, Iw: 8, Kh: 2, Kw: 2, Sh: 1, Sw: 1},
		{Ih: 8, Iw: 8, Kh: 0, Kw: 2, Sh: 1, Sw: 1},
		{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 0, Sw: 1},
		{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 1, Sw: 1, Pt: -1},
		{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 1, Sw: 1, Pt: 2}, // pad >= kernel
		{Ih: 2, Iw: 2, Kh: 3, Kw: 3, Sh: 1, Sw: 1},        // kernel too large
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
}

func TestMask(t *testing.T) {
	if got := FullMask().Count(); got != 128 {
		t.Errorf("FullMask count %d", got)
	}
	for _, n := range []int{0, 1, 16, 63, 64, 65, 127, 128} {
		m := MaskFirstN(n)
		if got := m.Count(); got != n {
			t.Errorf("MaskFirstN(%d) count %d", n, got)
		}
		for i := 0; i < 128; i++ {
			if m.Bit(i) != (i < n) {
				t.Errorf("MaskFirstN(%d) bit %d = %v", n, i, m.Bit(i))
			}
		}
	}
}

// TestMaskArithmetic pins the word-level Count and MaskSpan to their
// per-lane definitions — count the enabled lanes; end the span at the
// block of the highest enabled lane — on every MaskFirstN(n), every
// one-lane and two-lane mask and 4,096 seeded random masks, for strided
// operands over one and several repeats.
func TestMaskArithmetic(t *testing.T) {
	var masks []Mask
	for n := 0; n <= LanesPerRepeat; n++ {
		masks = append(masks, MaskFirstN(n))
	}
	lane := func(i int) Mask {
		var m Mask
		m[i/64] |= 1 << (i % 64)
		return m
	}
	for i := 0; i < LanesPerRepeat; i++ {
		masks = append(masks, lane(i))
		for j := i + 1; j < LanesPerRepeat; j++ {
			a, b := lane(i), lane(j)
			masks = append(masks, Mask{a[0] | b[0], a[1] | b[1]})
		}
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 4096; i++ {
		m := Mask{rng.Uint64(), rng.Uint64()}
		// Thin some masks out so high lanes are often clear.
		if i%2 == 1 {
			m[1] &= rng.Uint64() & rng.Uint64()
			m[0] &= rng.Uint64()
		}
		masks = append(masks, m)
	}
	operands := []Operand{
		Contig(UB, 0),
		{Buf: UB, Addr: 64, BlkStride: 2, RepStride: 16},
		{Buf: L1, Addr: 32, BlkStride: 0, RepStride: 1},
	}
	for _, m := range masks {
		count, high := 0, -1
		for i := 0; i < LanesPerRepeat; i++ {
			if m.Bit(i) {
				count++
				high = i
			}
		}
		if got := m.Count(); got != count {
			t.Fatalf("%#x: Count %d, want %d", m, got, count)
		}
		for _, o := range operands {
			for _, repeat := range []int{0, 1, 3} {
				got, ok := o.MaskSpan(m, repeat)
				if wantOK := high >= 0 && repeat >= 1; ok != wantOK {
					t.Fatalf("%#x %+v x%d: MaskSpan ok = %v, want %v", m, o, repeat, ok, wantOK)
				}
				if !ok {
					continue
				}
				want := Region{Buf: o.Buf, Off: o.Addr, End: o.BlockAddr(repeat-1, high/ElemsPerBlock) + BlockBytes}
				if got != want {
					t.Fatalf("%#x %+v x%d: MaskSpan %v, want %v", m, o, repeat, got, want)
				}
			}
		}
	}
	t.Logf("%d masks", len(masks))
}

func TestMaskPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MaskFirstN(129) did not panic")
		}
	}()
	MaskFirstN(129)
}

func TestRegionOverlap(t *testing.T) {
	a := Region{Buf: UB, Off: 0, End: 64}
	cases := []struct {
		b    Region
		want bool
	}{
		{Region{Buf: UB, Off: 32, End: 96}, true},
		{Region{Buf: UB, Off: 64, End: 96}, false},
		{Region{Buf: L1, Off: 0, End: 64}, false},
		{Region{Buf: UB, Off: 0, End: 1}, true},
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", a, c.b, got, c.want)
		}
	}
}

func TestOperandAddressing(t *testing.T) {
	o := Operand{Buf: UB, Addr: 64, BlkStride: 2, RepStride: 16}
	if got := o.BlockAddr(0, 0); got != 64 {
		t.Errorf("BlockAddr(0,0) = %d", got)
	}
	if got := o.BlockAddr(0, 3); got != 64+3*2*32 {
		t.Errorf("BlockAddr(0,3) = %d", got)
	}
	if got := o.BlockAddr(2, 1); got != 64+(2*16+2)*32 {
		t.Errorf("BlockAddr(2,1) = %d", got)
	}
	span := o.Span(3)
	wantEnd := 64 + (2*16+7*2)*32 + 32
	if span.Off != 64 || span.End != wantEnd {
		t.Errorf("Span = %v, want [64:%d)", span, wantEnd)
	}
}

func TestVecInstrCostAndRegions(t *testing.T) {
	cm := DefaultCostModel()
	v := &VecInstr{Op: VMax, Dst: Contig(UB, 0), Src0: Contig(UB, 1024), Src1: Contig(UB, 0), Mask: FullMask(), Repeat: 10}
	if err := v.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := v.Cycles(cm); got != cm.VecIssue+10*cm.VecPerRepeat {
		t.Errorf("Cycles = %d", got)
	}
	if got := v.Reads().Len(); got != 2 {
		t.Errorf("binary reads %d regions", got)
	}
	w := v.Writes()
	if w.Len() != 1 || w.At(0).Off != 0 || w.At(0).End != 10*256 {
		t.Errorf("writes %d regions, first %v", w.Len(), w.At(0))
	}
	// A masked instruction costs the same as a saturated one: the whole
	// point of the paper.
	masked := *v
	masked.Mask = MaskFirstN(16)
	if masked.Cycles(cm) != v.Cycles(cm) {
		t.Error("mask width must not change per-instruction cost")
	}
}

func TestVecInstrValidate(t *testing.T) {
	bad := []*VecInstr{
		{Op: VAdd, Dst: Contig(UB, 0), Src0: Contig(UB, 0), Src1: Contig(UB, 0), Repeat: 0},
		{Op: VAdd, Dst: Contig(UB, 0), Src0: Contig(UB, 0), Src1: Contig(UB, 0), Repeat: 256},
		{Op: VAdd, Dst: Contig(L1, 0), Src0: Contig(UB, 0), Src1: Contig(UB, 0), Repeat: 1},
		{Op: VAdd, Dst: Contig(UB, 0), Src0: Contig(GM, 0), Src1: Contig(UB, 0), Repeat: 1},
		{Op: VAdd, Dst: Operand{Buf: UB, Addr: 7}, Src0: Contig(UB, 0), Src1: Contig(UB, 0), Repeat: 1},
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Errorf("bad vec instr %d accepted", i)
		}
	}
}

func TestCopyInstrPipes(t *testing.T) {
	cases := []struct {
		src, dst BufID
		want     Pipe
	}{
		{GM, UB, PipeMTE2},
		{GM, L1, PipeMTE2},
		{UB, GM, PipeMTE3},
		{L1, UB, PipeMTE1},
		{L1, L0A, PipeMTE1},
		{UB, UB, PipeVector},
	}
	for _, c := range cases {
		m := &CopyInstr{SrcBuf: c.src, DstBuf: c.dst, NBurst: 1, BurstBytes: 32}
		if got := m.Pipe(); got != c.want {
			t.Errorf("copy %v->%v pipe %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestCopyInstrCostScalesWithBytes(t *testing.T) {
	cm := DefaultCostModel()
	small := &CopyInstr{SrcBuf: GM, DstBuf: UB, NBurst: 1, BurstBytes: 256}
	big := &CopyInstr{SrcBuf: GM, DstBuf: UB, NBurst: 1, BurstBytes: 256 * 1024}
	if small.Cycles(cm) >= big.Cycles(cm) {
		t.Error("DMA cost must grow with payload")
	}
	burst := &CopyInstr{SrcBuf: GM, DstBuf: UB, NBurst: 64, BurstBytes: 4096, SrcGap: 128}
	if burst.Cycles(cm) <= (&CopyInstr{SrcBuf: GM, DstBuf: UB, NBurst: 1, BurstBytes: 64 * 4096}).Cycles(cm) {
		t.Error("bursty copies must pay descriptor overhead")
	}
	r := burst.Reads().At(0)
	if r.End-r.Off != 64*4096+63*128 {
		t.Errorf("burst read span %v", r)
	}
}

func TestIm2ColValidate(t *testing.T) {
	p := ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	good := &Im2ColInstr{SrcBuf: L1, DstBuf: UB, P: p, C1Len: 1, Repeat: 1, RepeatMode: Im2ColRepeatPatches}
	if err := good.Validate(); err != nil {
		t.Errorf("good im2col rejected: %v", err)
	}
	bad := []*Im2ColInstr{
		{SrcBuf: UB, DstBuf: UB, P: p, C1Len: 1, Repeat: 1},
		{SrcBuf: L1, DstBuf: L0C, P: p, C1Len: 1, Repeat: 1},
		{SrcBuf: L1, DstBuf: UB, P: p, C1Len: 1, Repeat: 0},
		{SrcBuf: L1, DstBuf: UB, P: p, C1Len: 1, Repeat: 1, Xk: 2},
		{SrcBuf: L1, DstBuf: UB, P: p, C1Len: 1, Repeat: 1, Patch0: 3},
		{SrcBuf: L1, DstBuf: UB, P: p, C1Len: 1, Repeat: 1, RepeatMode: 2},
	}
	for i, im := range bad {
		if err := im.Validate(); err == nil {
			t.Errorf("bad im2col %d accepted", i)
		}
	}
}

func TestCol2ImValidate(t *testing.T) {
	p := ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	good := &Col2ImInstr{SrcBuf: UB, DstBuf: UB, P: p, C1Len: 1, Repeat: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("good col2im rejected: %v", err)
	}
	bad := &Col2ImInstr{SrcBuf: L1, DstBuf: UB, P: p, C1Len: 1, Repeat: 1}
	if err := bad.Validate(); err == nil {
		t.Error("col2im from L1 accepted")
	}
}

func TestSplitRepeat(t *testing.T) {
	cases := map[int][]int{
		0:   nil,
		1:   {1},
		255: {255},
		256: {255, 1},
		600: {255, 255, 90},
	}
	for total, want := range cases {
		got := SplitRepeat(total)
		if len(got) != len(want) {
			t.Errorf("SplitRepeat(%d) = %v", total, got)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("SplitRepeat(%d) = %v, want %v", total, got, want)
			}
		}
	}
}

// Property: SplitRepeat pieces sum to the total and respect the cap.
func TestQuickSplitRepeat(t *testing.T) {
	f := func(n uint16) bool {
		total := int(n)
		sum := 0
		for _, r := range SplitRepeat(total) {
			if r < 1 || r > MaxRepeat {
				return false
			}
			sum += r
		}
		return sum == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMmadCost(t *testing.T) {
	cm := DefaultCostModel()
	mm := &MmadInstr{M: 2, K: 3, N: 4}
	if err := mm.Validate(); err != nil {
		t.Fatal(err)
	}
	want := cm.CubeIssue + (2*3*4+cm.CubeFractalPairs-1)/cm.CubeFractalPairs
	if got := mm.Cycles(cm); got != want {
		t.Errorf("mmad cycles %d, want %d", got, want)
	}
	if mm.Pipe() != PipeCube {
		t.Error("mmad pipe")
	}
	if mm.Reads().Len() != 2 {
		t.Error("non-accumulating mmad must not read C")
	}
	mm.Accumulate = true
	if mm.Reads().Len() != 3 {
		t.Error("accumulating mmad must read C")
	}
}

func TestStringers(t *testing.T) {
	// Smoke-test the trace formatting paths.
	_ = (&VecInstr{Op: VMax, Repeat: 1, Dst: Contig(UB, 0)}).String()
	_ = (&CopyInstr{SrcBuf: GM, DstBuf: UB, NBurst: 1, BurstBytes: 32}).String()
	_ = (&Im2ColInstr{}).String()
	_ = (&Col2ImInstr{}).String()
	_ = (&MmadInstr{M: 1, K: 1, N: 1}).String()
	_ = (&ScalarInstr{Ops: 2}).String()
	_ = (&BarrierInstr{}).String()
	_ = (&TransposeInstr{Repeat: 1}).String()
	_ = (&SetFlagInstr{SrcPipe: PipeMTE2, DstPipe: PipeVector}).String()
	_ = (&WaitFlagInstr{SrcPipe: PipeMTE2, DstPipe: PipeVector}).String()
	for p := PipeScalar; p < NumPipes; p++ {
		if p.String() == "" {
			t.Error("empty pipe name")
		}
	}
	for b := GM; b < NumBufs; b++ {
		if b.String() == "" {
			t.Error("empty buffer name")
		}
	}
}
