package opt

import (
	"strings"
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/cce"
	"davinci/internal/isa"
)

// vec builds a unit-stride repeat=1 vadd at the given UB addresses.
func vec(dst, s0, s1 int) *isa.VecInstr {
	return &isa.VecInstr{
		Op: isa.VAdd, Dst: isa.Contig(isa.UB, dst), Src0: isa.Contig(isa.UB, s0),
		Src1: isa.Contig(isa.UB, s1), Mask: isa.FullMask(), Repeat: 1,
	}
}

// copyIn builds a GM->UB load of n bytes.
func copyIn(src, dst, n int) *isa.CopyInstr {
	return &isa.CopyInstr{SrcBuf: isa.GM, SrcAddr: src, DstBuf: isa.UB, DstAddr: dst, NBurst: 1, BurstBytes: n}
}

// copyOut builds a UB->GM store of n bytes.
func copyOut(src, dst, n int) *isa.CopyInstr {
	return &isa.CopyInstr{SrcBuf: isa.UB, SrcAddr: src, DstBuf: isa.GM, DstAddr: dst, NBurst: 1, BurstBytes: n}
}

const rb = isa.LanesPerRepeat * 2 // bytes one full-mask repeat covers

// coalescableProg emits a load, a run of n fusable repeat=1 vadds, and a
// store, so every pass has real data flow around it.
func coalescableProg(n int) *cce.Program {
	p := cce.New("coalescable")
	total := (2*n + n) * rb
	p.Emit(copyIn(0, 0, total))
	for i := 0; i < n; i++ {
		p.Emit(vec(2*n*rb+i*rb, i*rb, (n+i)*rb))
	}
	p.Emit(copyOut(2*n*rb, total, n*rb))
	return p
}

func TestCoalesceVecFusesUniformRun(t *testing.T) {
	prog := coalescableProg(10)
	next, applied := coalesceVec(prog, isa.DefaultCostModel())
	if applied != 9 {
		t.Fatalf("applied = %d, want 9", applied)
	}
	if len(next.Instrs) != 3 {
		t.Fatalf("instrs = %d, want 3", len(next.Instrs))
	}
	v := next.Instrs[1].(*isa.VecInstr)
	if v.Repeat != 10 || v.Dst.RepStride != 8 || v.Src0.RepStride != 8 || v.Src1.RepStride != 8 {
		t.Fatalf("fused instr = %v", v)
	}
	if err := v.Validate(); err != nil {
		t.Fatalf("fused instr invalid: %v", err)
	}
}

func TestCoalesceVecChunksAtMaxRepeat(t *testing.T) {
	prog := coalescableProg(300)
	next, applied := coalesceVec(prog, isa.DefaultCostModel())
	if applied != 298 {
		t.Fatalf("applied = %d, want 298", applied)
	}
	var reps []int
	for _, in := range next.Instrs {
		if v, ok := in.(*isa.VecInstr); ok {
			reps = append(reps, v.Repeat)
		}
	}
	if len(reps) != 2 || reps[0] != isa.MaxRepeat || reps[1] != 300-isa.MaxRepeat {
		t.Fatalf("repeat chunks = %v", reps)
	}
}

func TestFuseVecRejectsIllegalPairs(t *testing.T) {
	a := vec(2*rb, rb, 2*rb)
	cases := map[string]*isa.VecInstr{
		"different op":     {Op: isa.VMax, Dst: isa.Contig(isa.UB, 3*rb), Src0: isa.Contig(isa.UB, 2*rb), Src1: isa.Contig(isa.UB, 3*rb), Mask: isa.FullMask(), Repeat: 1},
		"different mask":   {Op: isa.VAdd, Dst: isa.Contig(isa.UB, 3*rb), Src0: isa.Contig(isa.UB, 2*rb), Src1: isa.Contig(isa.UB, 3*rb), Mask: isa.MaskFirstN(16), Repeat: 1},
		"negative delta":   vec(0, 2*rb, 3*rb), // dst goes backward
		"unaligned delta":  {Op: isa.VAdd, Dst: isa.Contig(isa.UB, 2*rb+16), Src0: isa.Contig(isa.UB, 2*rb), Src1: isa.Contig(isa.UB, 3*rb), Mask: isa.FullMask(), Repeat: 1},
		"different buffer": {Op: isa.VAdd, Dst: isa.Contig(isa.L0C, 3*rb), Src0: isa.Contig(isa.UB, 2*rb), Src1: isa.Contig(isa.UB, 3*rb), Mask: isa.FullMask(), Repeat: 1},
	}
	for name, b := range cases {
		if _, ok := fuseVec(a, b); ok {
			t.Errorf("%s: fuse unexpectedly legal", name)
		}
	}
}

func TestFuseVecRepeatCap(t *testing.T) {
	a := vec(0, rb, 2*rb)
	a.Repeat = isa.MaxRepeat
	a.Dst.RepStride, a.Src0.RepStride, a.Src1.RepStride = 8, 8, 8
	b := vec(isa.MaxRepeat*rb, rb+isa.MaxRepeat*rb, 2*rb+isa.MaxRepeat*rb)
	if _, ok := fuseVec(a, b); ok {
		t.Fatal("fuse past MaxRepeat unexpectedly legal")
	}
}

func TestCoalesceCopyFusesBurstPattern(t *testing.T) {
	p := cce.New("bursts")
	for i := 0; i < 8; i++ {
		p.Emit(copyIn(i*128, i*64, 64)) // src gap 64, dst gap 0
	}
	next, applied := coalesceCopy(p, isa.DefaultCostModel())
	if applied != 7 {
		t.Fatalf("applied = %d, want 7", applied)
	}
	c := next.Instrs[0].(*isa.CopyInstr)
	if c.NBurst != 8 || c.SrcGap != 64 || c.DstGap != 0 || c.BurstBytes != 64 {
		t.Fatalf("fused copy = %v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("fused copy invalid: %v", err)
	}
}

func TestCoalesceCopyRejectsIrregularGaps(t *testing.T) {
	p := cce.New("irregular")
	p.Emit(copyIn(0, 0, 64))
	p.Emit(copyIn(64, 64, 64))
	p.Emit(copyIn(256, 128, 64)) // src jumps: gap 128 != 0
	next, applied := coalesceCopy(p, isa.DefaultCostModel())
	if applied != 1 || len(next.Instrs) != 2 {
		t.Fatalf("applied = %d, instrs = %d; want 1 fused pair + 1 leftover", applied, len(next.Instrs))
	}
}

func TestDeadSyncRemovesAllFlags(t *testing.T) {
	p := cce.New("flags")
	p.Emit(copyIn(0, 0, 64))
	p.Emit(&isa.SetFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 0})
	p.Emit(&isa.WaitFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 0})
	p.Emit(vec(64, 0, 0))
	next, removed := deadSync(p, isa.DefaultCostModel())
	if removed != 2 || len(next.Instrs) != 2 {
		t.Fatalf("removed = %d, instrs = %d", removed, len(next.Instrs))
	}
}

func TestDeadBarrierKeepsLiveRemovesDead(t *testing.T) {
	p := cce.New("barriers")
	p.Emit(copyIn(0, 0, 64))
	p.Emit(&isa.BarrierInstr{}) // live: MTE2 write -> Vector read spans it
	p.Emit(vec(64, 0, 0))
	p.Emit(&isa.BarrierInstr{}) // dead: nothing after it
	next, removed := deadBarrier(p, isa.DefaultCostModel())
	if removed != 1 || len(next.Instrs) != 3 {
		t.Fatalf("removed = %d, instrs = %d", removed, len(next.Instrs))
	}
	if _, ok := next.Instrs[1].(*isa.BarrierInstr); !ok {
		t.Fatalf("live barrier gone: %v", next.Instrs)
	}
}

func TestDeadMoveRemovesUnreadScratchChain(t *testing.T) {
	p := cce.New("deadmoves")
	p.Emit(copyIn(0, 0, 64))
	p.Emit(vec(10*rb, 0, 0))      // feeds only the next, itself dead
	p.Emit(vec(20*rb, 10*rb, 0))  // never read again, UB-only: dead
	p.Emit(vec(rb, 0, 0))         // live: stored below
	p.Emit(copyOut(rb, 1024, rb)) // GM store keeps it
	next, removed := deadMove(p, isa.DefaultCostModel())
	if removed != 2 || len(next.Instrs) != 3 {
		t.Fatalf("removed = %d, instrs = %d", removed, len(next.Instrs))
	}
	if _, ok := next.Instrs[2].(*isa.CopyInstr); !ok {
		t.Fatalf("store gone: %v", next.Instrs)
	}
}

func TestOptimizeEndToEnd(t *testing.T) {
	prog := coalescableProg(32)
	res := Optimize(prog, Options{Level: LevelRewrite})
	if !res.Validated || res.Rejected != "" {
		t.Fatalf("not validated: %+v", res)
	}
	if !res.Changed() || res.Cycles >= res.BaselineCycles {
		t.Fatalf("no improvement: %s", res.Summary())
	}
	if got := aicore.Time(res.Prog, nil, false).Cycles; got != res.Cycles {
		t.Fatalf("reported cycles %d != scheduled %d", res.Cycles, got)
	}
	// The result must replay bit-identically; Validate already proved it,
	// but pin the reported accounting too.
	if res.Instrs != len(res.Prog.Instrs) || res.BaselineInstrs != len(prog.Instrs) {
		t.Fatalf("instruction accounting off: %+v", res)
	}
}

func TestOptimizeLevelNoneIsIdentity(t *testing.T) {
	prog := coalescableProg(8)
	res := Optimize(prog, Options{Level: LevelNone})
	if res.Prog != prog || res.Changed() || !res.Validated {
		t.Fatalf("O0 not identity: %+v", res)
	}
}

func TestRescheduleHidesLatency(t *testing.T) {
	// A long load feeds vadd A; vadd B is independent. In program order B
	// queues behind A on the vector pipe and pays the load's latency; any
	// legal reorder issues B first.
	p := cce.New("latency")
	p.Emit(copyIn(0, 0, 16384))
	p.Emit(vec(17*1024, 0, rb))            // A: reads the loaded bytes
	p.Emit(vec(18*1024, 20*1024, 20*1024)) // B: fully outside the load's span
	p.Emit(copyOut(17*1024, 16384, rb))    // store A
	p.Emit(copyOut(18*1024, 16384+rb, rb)) // store B
	res := Optimize(p, Options{Level: LevelSchedule})
	if res.Rejected != "" {
		t.Fatalf("rejected: %s", res.Rejected)
	}
	var found bool
	for _, rw := range res.Rewrites {
		if rw.Pass == "reschedule" {
			found = true
		}
	}
	if !found {
		t.Fatalf("reschedule did not fire: %s", res.Summary())
	}
	if res.Cycles >= res.BaselineCycles {
		t.Fatalf("no cycle win: %s", res.Summary())
	}
}

func TestValidateRejectsDivergentProgram(t *testing.T) {
	base := cce.New("base")
	base.Emit(copyIn(0, 0, 64))
	base.Emit(vec(64, 0, 0))
	base.Emit(copyOut(64, 128, 64))
	broken := cce.New("base")
	broken.Emit(copyIn(0, 0, 64))
	broken.Emit(copyOut(64, 128, 64)) // the vadd's result never computed
	reason := Validate(base, broken, Options{})
	if !strings.Contains(reason, "global memory diverged") {
		t.Fatalf("reason = %q, want GM divergence", reason)
	}
}

func TestValidateRejectsRegression(t *testing.T) {
	fast := cce.New("p")
	fast.Emit(copyIn(0, 0, 64))
	slow := cce.New("p")
	slow.Emit(copyIn(0, 0, 64))
	slow.Emit(copyIn(0, 0, 64))
	if reason := Validate(fast, slow, Options{}); !strings.Contains(reason, "regressed") {
		t.Fatalf("reason = %q, want cycle regression", reason)
	}
}
