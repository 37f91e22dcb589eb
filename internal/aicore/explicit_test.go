package aicore

import (
	"math/rand"
	"strings"
	"testing"

	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/tensor"
)

// buildChain builds a program with a cross-pipe RAW chain:
// MTE2 load -> vector compute -> MTE3 store.
func buildChain(c *Core) (*cce.Program, int, int) {
	ub := c.Mem.Space(isa.UB)
	a := ub.MustAlloc(4096)
	d := ub.MustAlloc(4096)
	p := cce.New("chain")
	p.EmitCopy(isa.GM, 0, isa.UB, a, 4096)
	p.EmitVec(isa.VMuls, isa.Contig(isa.UB, d), isa.Contig(isa.UB, a), isa.Operand{}, fp16.FromFloat32(2), isa.FullMask(), 16)
	p.EmitCopy(isa.UB, d, isa.GM, 65536, 4096)
	return p, a, d
}

func TestExplicitDetectsMissingFlags(t *testing.T) {
	c := New(buffer.Config{}, nil)
	p, _, _ := buildChain(c)
	// No flags at all: the vector read races the MTE2 write.
	_, err := c.RunExplicit(p)
	if err == nil || !strings.Contains(err.Error(), "race") {
		t.Fatalf("expected race error, got %v", err)
	}
}

func TestAutoSyncMakesChainRaceFree(t *testing.T) {
	c := New(buffer.Config{}, nil)
	p, _, _ := buildChain(c)
	synced := cce.AutoSync(p)
	if synced.Len() <= p.Len() {
		t.Fatalf("AutoSync inserted no flags (%d -> %d)", p.Len(), synced.Len())
	}
	st, err := c.RunExplicit(synced)
	if err != nil {
		t.Fatal(err)
	}
	// The explicit schedule must agree with the implicit scoreboard's
	// cycle count up to the flag costs.
	c2 := New(buffer.Config{}, nil)
	p2, _, _ := buildChain(c2)
	stImplicit, err := c2.Run(p2)
	if err != nil {
		t.Fatal(err)
	}
	flags := int64(synced.Len()-p.Len()) * c.Cost.Flag
	if st.Cycles < stImplicit.Cycles || st.Cycles > stImplicit.Cycles+flags+4 {
		t.Errorf("explicit %d vs implicit %d (+%d flag budget)", st.Cycles, stImplicit.Cycles, flags)
	}
}

// The explicit mode must produce identical functional results and pass the
// race detector on a real kernel-shaped program (an im2col maxpool tile).
func TestAutoSyncOnKernelProgram(t *testing.T) {
	cp := isa.ConvParams{Ih: 16, Iw: 16, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	build := func(c *Core) (*cce.Program, int, *tensor.Tensor) {
		rng := rand.New(rand.NewSource(1))
		in := tensor.New(1, 1, 16, 16, tensor.C0)
		in.FillRandom(rng, 4)
		inGM, _ := c.Mem.PlaceTensor(isa.GM, in)
		l1, _ := c.Mem.Space(isa.L1).Alloc(in.Bytes())
		fracs := cp.Fractals()
		colUB := c.Mem.Space(isa.UB).MustAlloc(9 * fracs * isa.FractalBytes)
		outUB := c.Mem.Space(isa.UB).MustAlloc(fracs * isa.FractalBytes)
		outGM, _ := c.Mem.Space(isa.GM).Alloc(cp.Patches() * 32)

		p := cce.New("maxpool-tile")
		p.EmitCopy(isa.GM, inGM, isa.L1, l1, in.Bytes())
		p.EmitIm2ColRange(l1, isa.UB, colUB, cp, 1, 0, 0, fracs, 0, 0)
		p.EmitDup(isa.UB, outUB, fracs*16*16, fp16.NegativeInfinity)
		dst := isa.Contig(isa.UB, outUB)
		for s := 0; s < 9; s++ {
			src := isa.Contig(isa.UB, colUB+s*fracs*isa.FractalBytes)
			p.EmitVec(isa.VMax, dst, src, dst, 0, isa.FullMask(), fracs*2)
		}
		p.EmitCopy(isa.UB, outUB, isa.GM, outGM, cp.Patches()*32)
		return p, outGM, in
	}

	cRef := New(buffer.Config{}, nil)
	pRef, outRef, _ := build(cRef)
	if _, err := cRef.Run(pRef); err != nil {
		t.Fatal(err)
	}
	want := cRef.Mem.ReadTensor(isa.GM, outRef, cp.Patches(), tensor.C0)

	cEx := New(buffer.Config{}, nil)
	pEx, outEx, _ := build(cEx)
	st, err := cEx.RunExplicit(cce.AutoSync(pEx))
	if err != nil {
		t.Fatal(err)
	}
	got := cEx.Mem.ReadTensor(isa.GM, outEx, cp.Patches(), tensor.C0)
	if tensor.MaxAbsDiff(got, want) != 0 {
		t.Error("explicit-sync run diverges functionally")
	}
	if st.Cycles <= 0 {
		t.Error("no cycles accounted")
	}
}

func TestExplicitDeadlockDetected(t *testing.T) {
	c := New(buffer.Config{}, nil)
	p := cce.New("deadlock")
	p.Emit(&isa.WaitFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 0})
	_, err := c.RunExplicit(p)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestFlagValidation(t *testing.T) {
	bad := []isa.Instr{
		&isa.SetFlagInstr{SrcPipe: isa.PipeVector, DstPipe: isa.PipeVector, Event: 0},
		&isa.SetFlagInstr{SrcPipe: isa.PipeVector, DstPipe: isa.PipeMTE2, Event: 16},
		&isa.WaitFlagInstr{SrcPipe: -1, DstPipe: isa.PipeMTE2, Event: 0},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("bad flag %d accepted", i)
		}
	}
	good := &isa.SetFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 3}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	if good.Pipe() != isa.PipeMTE2 {
		t.Error("set_flag issues on the source pipe")
	}
	w := &isa.WaitFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 3}
	if w.Pipe() != isa.PipeVector {
		t.Error("wait_flag issues on the destination pipe")
	}
}

// Independent work on two pipes must still overlap in explicit mode (flags
// only serialize what they connect).
func TestExplicitPreservesOverlap(t *testing.T) {
	c := New(buffer.Config{}, nil)
	ub := c.Mem.Space(isa.UB)
	a := ub.MustAlloc(8192)
	b := ub.MustAlloc(8192)
	p := cce.New("independent")
	p.EmitCopy(isa.GM, 0, isa.UB, a, 8192)                                                                 // MTE2
	p.EmitVec(isa.VDup, isa.Contig(isa.UB, b), isa.Operand{}, isa.Operand{}, fp16.One, isa.FullMask(), 32) // VEC
	st, err := c.RunExplicit(cce.AutoSync(p))
	if err != nil {
		t.Fatal(err)
	}
	cm := c.Cost
	copyCost := (&isa.CopyInstr{SrcBuf: isa.GM, DstBuf: isa.UB, NBurst: 1, BurstBytes: 8192}).Cycles(cm)
	if st.Cycles > copyCost+cm.Flag*2 {
		t.Errorf("independent work serialized: %d cycles vs copy %d", st.Cycles, copyCost)
	}
}

// barrierProgram copies GM into UB[0:4096) on MTE2, then issues a pipe
// barrier, then a vadds on the Vector pipe reading UB[0:512): only the
// barrier orders the vadds after the copy.
func barrierProgram() *cce.Program {
	p := cce.New("barrier")
	p.EmitCopy(isa.GM, 0, isa.UB, 0, 4096)
	p.EmitBarrier()
	p.EmitVec(isa.VAdds, isa.Contig(isa.UB, 8192), isa.Contig(isa.UB, 0), isa.Operand{}, fp16.One, isa.FullMask(), 2)
	return p
}

// TestExplicitBarrierHoldsLaterInstrs: under explicit semantics a pipe
// barrier holds back every later instruction, on every pipe, until it
// ends — also one whose pipe reaches it before the barrier is placed —
// so the vadds starts after the copy and the barrier, as under Run.
func TestExplicitBarrierHoldsLaterInstrs(t *testing.T) {
	c := New(buffer.Config{}, nil)
	c.Trace = &Trace{}
	if _, err := c.RunExplicit(barrierProgram()); err != nil {
		t.Fatal(err)
	}
	var at [3]TraceEntry
	for _, e := range c.Trace.Entries {
		at[e.Idx] = e
	}
	copyEnd, barrier, vadds := at[0].End, at[1], at[2]
	if barrier.Start < copyEnd || vadds.Start < barrier.End {
		t.Errorf("copy ends at %d, barrier runs [%d,%d), vadds starts at %d: want the vadds after the barrier",
			copyEnd, barrier.Start, barrier.End, vadds.Start)
	}
	implicit := New(buffer.Config{}, nil)
	implicit.Trace = &Trace{}
	if _, err := implicit.Run(barrierProgram()); err != nil {
		t.Fatal(err)
	}
	if got, want := vadds.Start, implicit.Trace.Entries[2].Start; got != want {
		t.Errorf("vadds starts at %d under RunExplicit, %d under Run", got, want)
	}
}
