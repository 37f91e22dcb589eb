package lint

import (
	"strings"
	"testing"

	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/isa"
)

// hasPass reports whether any diagnostic came from the named pass, and
// returns the first such diagnostic.
func hasPass(diags []Diagnostic, pass string) (Diagnostic, bool) {
	for _, d := range diags {
		if d.Pass == pass {
			return d, true
		}
	}
	return Diagnostic{}, false
}

func wantPass(t *testing.T, diags []Diagnostic, pass string) Diagnostic {
	t.Helper()
	d, ok := hasPass(diags, pass)
	if !ok {
		t.Fatalf("want a %q diagnostic, got %d others: %v", pass, len(diags), diags)
	}
	return d
}

func wantClean(t *testing.T, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

func TestBoundsOverflow(t *testing.T) {
	ubCap := buffer.DefaultUBSize
	prog := cce.New("t")
	// A full-mask repeat at the last block runs 8 blocks past the end.
	prog.Emit(&isa.VecInstr{Op: isa.VDup, Dst: isa.Contig(isa.UB, ubCap-isa.BlockBytes), Mask: isa.FullMask(), Repeat: 1})
	d := wantPass(t, CheckImplicit(prog), "bounds")
	if d.Sev != SevError || d.Region.Buf != isa.UB {
		t.Errorf("bounds diagnostic = %+v", d)
	}

	prog = cce.New("t2")
	prog.Emit(&isa.CopyInstr{SrcBuf: isa.GM, DstBuf: isa.L1, DstAddr: buffer.DefaultL1Size - 64, NBurst: 1, BurstBytes: 128})
	wantPass(t, CheckImplicit(prog), "bounds")
}

func TestBoundsMaskAware(t *testing.T) {
	// A 16-lane tail mask only touches block 0, so the same base address
	// at the end of the UB is fine — the span must not claim all 8 blocks.
	prog := cce.New("t")
	prog.Emit(&isa.VecInstr{Op: isa.VDup, Dst: isa.Contig(isa.UB, buffer.DefaultUBSize-isa.BlockBytes),
		Mask: isa.MaskFirstN(isa.ElemsPerBlock), Repeat: 1})
	prog.EmitCopy(isa.UB, buffer.DefaultUBSize-isa.BlockBytes, isa.GM, 0, isa.BlockBytes)
	wantClean(t, CheckImplicit(prog))
}

func TestBoundsRespectsCustomCapacities(t *testing.T) {
	prog := cce.New("t")
	prog.Emit(&isa.VecInstr{Op: isa.VDup, Dst: isa.Contig(isa.UB, 0), Mask: isa.FullMask(), Repeat: 2})
	prog.EmitCopy(isa.UB, 0, isa.GM, 0, 512)
	var caps [isa.NumBufs]int
	caps[isa.UB] = 256 // 2 repeats x 8 blocks x 32 B = 512 B > 256 B
	if _, ok := hasPass(CheckWith(Options{Caps: caps, Mode: SyncImplicit}, prog), "bounds"); !ok {
		t.Fatal("want a bounds diagnostic against the 256-byte capacity")
	}
}

func TestSyncUnmatchedWait(t *testing.T) {
	prog := cce.New("t")
	prog.Emit(&isa.WaitFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 0})
	diags := Check(prog)
	if d := wantPass(t, diags, "sync"); d.Sev != SevError {
		t.Errorf("unmatched wait severity = %v, want error", d.Sev)
	}
	// The hazard pass independently detects the deadlocked schedule.
	wantPass(t, diags, "hazard")
}

func TestSyncUnconsumedSet(t *testing.T) {
	prog := cce.New("t")
	prog.Emit(&isa.SetFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 3})
	d := wantPass(t, Check(prog), "sync")
	if d.Sev != SevWarning || !strings.Contains(d.Msg, "never consumed") {
		t.Errorf("unconsumed set diagnostic = %s", d)
	}
}

func TestSyncPairStraddlingBarrier(t *testing.T) {
	prog := cce.New("t")
	prog.Emit(&isa.SetFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 0})
	prog.EmitBarrier()
	prog.Emit(&isa.WaitFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 0})
	d := wantPass(t, Check(prog), "sync")
	if d.Sev != SevWarning || !strings.Contains(d.Msg, "straddles") {
		t.Errorf("straddling-pair diagnostic = %s", d)
	}
}

func TestHazardMissingFlag(t *testing.T) {
	prog := cce.New("t")
	prog.Emit(&isa.CopyInstr{SrcBuf: isa.GM, DstBuf: isa.UB, DstAddr: 0, NBurst: 1, BurstBytes: 256})
	prog.Emit(&isa.VecInstr{Op: isa.VAdds, Dst: isa.Contig(isa.UB, 4096), Src0: isa.Contig(isa.UB, 0),
		Mask: isa.FullMask(), Repeat: 1})
	d := wantPass(t, Check(prog), "hazard")
	if !strings.Contains(d.Msg, "read-after-write") {
		t.Errorf("hazard diagnostic = %s", d)
	}
	// The implicit-scoreboard mode does not require flags.
	if _, ok := hasPass(CheckImplicit(prog), "hazard"); ok {
		t.Error("implicit mode must not run the hazard pass")
	}
}

func TestHazardFlagOrders(t *testing.T) {
	prog := cce.New("t")
	prog.Emit(&isa.CopyInstr{SrcBuf: isa.GM, DstBuf: isa.UB, DstAddr: 0, NBurst: 1, BurstBytes: 256})
	prog.Emit(&isa.SetFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 0})
	prog.Emit(&isa.WaitFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 0})
	prog.Emit(&isa.VecInstr{Op: isa.VAdds, Dst: isa.Contig(isa.UB, 4096), Src0: isa.Contig(isa.UB, 0),
		Mask: isa.FullMask(), Repeat: 1})
	prog.Emit(&isa.SetFlagInstr{SrcPipe: isa.PipeVector, DstPipe: isa.PipeMTE3, Event: 0})
	prog.Emit(&isa.WaitFlagInstr{SrcPipe: isa.PipeVector, DstPipe: isa.PipeMTE3, Event: 0})
	prog.EmitCopy(isa.UB, 4096, isa.GM, 0, 256)
	wantClean(t, Check(prog))
}

func TestHazardBarrierOrders(t *testing.T) {
	prog := cce.New("t")
	prog.Emit(&isa.CopyInstr{SrcBuf: isa.GM, DstBuf: isa.UB, DstAddr: 0, NBurst: 1, BurstBytes: 256})
	prog.EmitBarrier()
	prog.Emit(&isa.VecInstr{Op: isa.VAdds, Dst: isa.Contig(isa.UB, 4096), Src0: isa.Contig(isa.UB, 0),
		Mask: isa.FullMask(), Repeat: 1})
	prog.EmitBarrier()
	prog.EmitCopy(isa.UB, 4096, isa.GM, 0, 256)
	wantClean(t, Check(prog))
}

// TestHazardTransitiveOrder exercises ordering that no single flag
// expresses directly: MTE2 -> VEC -> MTE3 flags order the MTE2 write
// before the MTE3 read transitively through the vector pipe.
func TestHazardTransitiveOrder(t *testing.T) {
	prog := cce.New("t")
	prog.Emit(&isa.CopyInstr{SrcBuf: isa.GM, DstBuf: isa.UB, DstAddr: 0, NBurst: 1, BurstBytes: 256})
	prog.Emit(&isa.SetFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 0})
	prog.Emit(&isa.WaitFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 0})
	// In-place scale: reads and writes the loaded region on VEC.
	prog.Emit(&isa.VecInstr{Op: isa.VMuls, Dst: isa.Contig(isa.UB, 0), Src0: isa.Contig(isa.UB, 0),
		Mask: isa.FullMask(), Repeat: 1})
	prog.Emit(&isa.SetFlagInstr{SrcPipe: isa.PipeVector, DstPipe: isa.PipeMTE3, Event: 0})
	prog.Emit(&isa.WaitFlagInstr{SrcPipe: isa.PipeVector, DstPipe: isa.PipeMTE3, Event: 0})
	prog.EmitCopy(isa.UB, 0, isa.GM, 0, 256) // reads what MTE2 wrote, no direct MTE2->MTE3 flag
	wantClean(t, Check(prog))
}

func TestInvariantsZeroMask(t *testing.T) {
	prog := cce.New("t")
	prog.Emit(&isa.VecInstr{Op: isa.VDup, Dst: isa.Contig(isa.UB, 0), Mask: isa.Mask{}, Repeat: 1})
	d := wantPass(t, CheckImplicit(prog), "invariants")
	if !strings.Contains(d.Msg, "all-zero mask") {
		t.Errorf("zero-mask diagnostic = %s", d)
	}
}

func TestInvariantsPartialOverlap(t *testing.T) {
	prog := cce.New("t")
	// Source one block past the destination: lanes read bytes the same
	// instruction overwrites.
	prog.Emit(&isa.VecInstr{Op: isa.VAdds, Dst: isa.Contig(isa.UB, 0), Src0: isa.Contig(isa.UB, isa.BlockBytes),
		Mask: isa.FullMask(), Repeat: 1})
	prog.EmitCopy(isa.UB, 0, isa.GM, 0, 256)
	d := wantPass(t, CheckImplicit(prog), "invariants")
	if !strings.Contains(d.Msg, "overlaps destination") {
		t.Errorf("overlap diagnostic = %s", d)
	}
}

func TestInvariantsInPlaceAccumulationAllowed(t *testing.T) {
	prog := cce.New("t")
	dst := isa.Contig(isa.UB, 0)
	prog.Emit(&isa.VecInstr{Op: isa.VDup, Dst: dst, Mask: isa.FullMask(), Repeat: 1})
	prog.Emit(&isa.VecInstr{Op: isa.VMax, Dst: dst, Src0: isa.Contig(isa.UB, 4096), Src1: dst,
		Mask: isa.FullMask(), Repeat: 1})
	prog.EmitCopy(isa.UB, 0, isa.GM, 0, 256)
	// Src1 == Dst is the reduction idiom; the uninitialized src0 read is
	// not the overlap pass's business.
	if _, ok := hasPass(CheckImplicit(prog), "invariants"); ok {
		t.Error("in-place accumulation must not be flagged")
	}
}

func TestInvariantsOverlappingCopy(t *testing.T) {
	prog := cce.New("t")
	prog.Emit(&isa.CopyInstr{SrcBuf: isa.UB, SrcAddr: 0, DstBuf: isa.UB, DstAddr: 128, NBurst: 1, BurstBytes: 256})
	d := wantPass(t, CheckImplicit(prog), "invariants")
	if !strings.Contains(d.Msg, "overlaps destination") {
		t.Errorf("copy overlap diagnostic = %s", d)
	}
}

func TestDeadStoreOverwritten(t *testing.T) {
	prog := cce.New("t")
	prog.Emit(&isa.VecInstr{Op: isa.VDup, Dst: isa.Contig(isa.UB, 0), Mask: isa.FullMask(), Repeat: 1})
	prog.Emit(&isa.VecInstr{Op: isa.VDup, Dst: isa.Contig(isa.UB, 0), Mask: isa.FullMask(), Repeat: 1})
	prog.EmitCopy(isa.UB, 0, isa.GM, 0, 256)
	d := wantPass(t, CheckImplicit(prog), "invariants")
	if d.Index != 0 || !strings.Contains(d.Msg, "dead store") {
		t.Errorf("dead-store diagnostic = %s", d)
	}
}

func TestDeadStoreNeverRead(t *testing.T) {
	prog := cce.New("t")
	prog.Emit(&isa.VecInstr{Op: isa.VDup, Dst: isa.Contig(isa.UB, 0), Mask: isa.FullMask(), Repeat: 1})
	d := wantPass(t, CheckImplicit(prog), "invariants")
	if !strings.Contains(d.Msg, "ever reads") {
		t.Errorf("never-read diagnostic = %s", d)
	}
}

func TestInvariantsMultiError(t *testing.T) {
	prog := cce.New("t")
	prog.Emit(&isa.VecInstr{Op: isa.VDup, Dst: isa.Contig(isa.UB, 0), Mask: isa.FullMask(), Repeat: 0})
	prog.Emit(&isa.VecInstr{Op: isa.VDup, Dst: isa.Contig(isa.L1, 0), Mask: isa.FullMask(), Repeat: 1})
	var invalid int
	for _, d := range CheckImplicit(prog) {
		if d.Pass == "invariants" && d.Sev == SevError {
			invalid++
		}
	}
	if invalid < 2 {
		t.Errorf("want both invalid instructions reported, got %d diagnostics", invalid)
	}
}

func TestSubtract(t *testing.T) {
	got := subtract(nil, []span{{0, 100}}, 40, 60)
	want := []span{{0, 40}, {60, 100}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("subtract middle = %v", got)
	}
	if got := subtract(nil, []span{{0, 10}, {20, 30}}, 5, 25); len(got) != 2 || got[0] != (span{0, 5}) || got[1] != (span{25, 30}) {
		t.Errorf("subtract across = %v", got)
	}
	if got := subtract(nil, []span{{0, 10}}, 0, 10); len(got) != 0 {
		t.Errorf("subtract all = %v", got)
	}
}
