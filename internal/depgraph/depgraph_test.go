package depgraph_test

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"davinci/internal/cce"
	"davinci/internal/depgraph"
	"davinci/internal/isa"
)

// nontrivial builds a program exercising every dependence kind across
// several pipes, one flag-ordered edge, and a barrier that cuts the scan:
//
//	0 copy GM->UB[0:512)      MTE2
//	1 set_flag MTE2->V
//	2 wait_flag MTE2->V
//	3 vadd UB[1024) = UB[0) + UB[256)   Vector, RAW on 0 (flag-ordered)
//	4 copy UB[1024:1280)->GM  MTE3, RAW on 3 (unordered)
//	5 barrier
//	6 copy GM->UB[0:512)      MTE2, no deps (barrier cut)
//	7 vmax UB[2048) = max(UB[0), UB[0))  Vector, RAW on 6 (unordered)
func nontrivial() *cce.Program {
	p := cce.New("nontrivial")
	p.Emit(&isa.CopyInstr{SrcBuf: isa.GM, SrcAddr: 0, DstBuf: isa.UB, DstAddr: 0, NBurst: 1, BurstBytes: 512})
	p.Emit(&isa.SetFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 0})
	p.Emit(&isa.WaitFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 0})
	p.Emit(&isa.VecInstr{Op: isa.VAdd, Dst: isa.Contig(isa.UB, 1024), Src0: isa.Contig(isa.UB, 0),
		Src1: isa.Contig(isa.UB, 256), Mask: isa.FullMask(), Repeat: 1})
	p.Emit(&isa.CopyInstr{SrcBuf: isa.UB, SrcAddr: 1024, DstBuf: isa.GM, DstAddr: 4096, NBurst: 1, BurstBytes: 256})
	p.Emit(&isa.BarrierInstr{})
	p.Emit(&isa.CopyInstr{SrcBuf: isa.GM, SrcAddr: 0, DstBuf: isa.UB, DstAddr: 0, NBurst: 1, BurstBytes: 512})
	p.Emit(&isa.VecInstr{Op: isa.VMax, Dst: isa.Contig(isa.UB, 2048), Src0: isa.Contig(isa.UB, 0),
		Src1: isa.Contig(isa.UB, 0), Mask: isa.FullMask(), Repeat: 1})
	return p
}

// TestCrossPipeDepsEdgeSet pins the exact dependence edge set of the
// nontrivial program: the contract both the lint hazard pass and the
// optimizer build on.
func TestCrossPipeDepsEdgeSet(t *testing.T) {
	got := depgraph.CrossPipeDeps(nontrivial())
	want := []depgraph.Dep{
		{Consumer: 3, Producer: 0, Kind: depgraph.ReadAfterWrite, Region: isa.Region{Buf: isa.UB, Off: 0, End: 256}},
		{Consumer: 4, Producer: 3, Kind: depgraph.ReadAfterWrite, Region: isa.Region{Buf: isa.UB, Off: 1024, End: 1280}},
		{Consumer: 7, Producer: 6, Kind: depgraph.ReadAfterWrite, Region: isa.Region{Buf: isa.UB, Off: 0, End: 256}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edge set:\n got %+v\nwant %+v", got, want)
	}
}

func TestReplayOrdering(t *testing.T) {
	s := depgraph.Replay(nontrivial())
	if len(s.Deadlocked) != 0 {
		t.Fatalf("unexpected deadlock: %v", s.Deadlocked)
	}
	cases := []struct {
		consumer, producer int
		want               bool
	}{
		{3, 0, true},  // flag pair orders the load before the vadd
		{4, 3, false}, // nothing orders the store after the vadd
		{6, 0, true},  // same-pipe issue is in order
		{7, 6, false}, // nothing orders the second load before the vmax
		// The barrier orders every pair it separates, even where a pipe
		// (MTE2, for 6) reaches its next instruction before the barrier
		// is placed. CrossPipeDeps cuts its scan at barriers, so clients
		// never need these pairs; the replay still agrees with
		// aicore.Core.TimeExplicit on them, and so on deadlocks.
		{6, 4, true},
		{7, 4, true},
	}
	for _, c := range cases {
		if got := s.Ordered(c.consumer, c.producer); got != c.want {
			t.Errorf("Ordered(%d, %d) = %v, want %v", c.consumer, c.producer, got, c.want)
		}
	}
}

// TestReplayBarrierHoldsLaterInstrs: a load, a barrier, then a vadds
// reading the loaded bytes on another pipe. Only the barrier orders the
// pair, and the replay orders it.
func TestReplayBarrierHoldsLaterInstrs(t *testing.T) {
	p := cce.New("barrier")
	p.EmitCopy(isa.GM, 0, isa.UB, 0, 4096)
	p.EmitBarrier()
	p.EmitVec(isa.VAdds, isa.Contig(isa.UB, 8192), isa.Contig(isa.UB, 0), isa.Operand{}, 0, isa.FullMask(), 2)
	s := depgraph.Replay(p)
	if len(s.Deadlocked) != 0 || !s.Ordered(2, 0) {
		t.Errorf("vadds not ordered after the copy across the barrier (deadlocked %v)", s.Deadlocked)
	}
}

func TestReplayDeadlock(t *testing.T) {
	p := cce.New("deadlock")
	p.Emit(&isa.WaitFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 3})
	p.Emit(&isa.VecInstr{Op: isa.VAdd, Dst: isa.Contig(isa.UB, 0), Src0: isa.Contig(isa.UB, 0),
		Src1: isa.Contig(isa.UB, 0), Mask: isa.FullMask(), Repeat: 1})
	s := depgraph.Replay(p)
	if len(s.Deadlocked) != 1 || s.Deadlocked[0] != 0 {
		t.Fatalf("Deadlocked = %v, want [0]", s.Deadlocked)
	}
}

// TestConflictsMatchesBruteForce checks the per-buffer conflict scan
// against the obvious quadratic reference on the nontrivial program.
func TestConflictsMatchesBruteForce(t *testing.T) {
	prog := nontrivial()
	preds, err := depgraph.Conflicts(prog, 1<<20)
	if err != nil {
		t.Fatalf("budget unexpectedly exhausted: %v", err)
	}
	want := make([][]int32, len(prog.Instrs))
	overlap := func(a, b isa.Region) bool { return a.Buf == b.Buf && a.Off < b.End && b.Off < a.End }
	for j, cons := range prog.Instrs {
		seen := map[int32]bool{}
		for i := 0; i < j; i++ {
			prod := prog.Instrs[i]
			conflict := false
			for _, w := range prod.Writes() {
				for _, r := range append(cons.Reads(), cons.Writes()...) {
					if overlap(w, r) {
						conflict = true
					}
				}
			}
			for _, r := range prod.Reads() {
				for _, w := range cons.Writes() {
					if overlap(r, w) {
						conflict = true
					}
				}
			}
			if conflict && !seen[int32(i)] {
				seen[int32(i)] = true
				want[j] = append(want[j], int32(i))
			}
		}
	}
	for j := range want {
		got := append([]int32(nil), preds[j]...)
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		if len(got) == 0 && len(want[j]) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want[j]) {
			t.Errorf("preds[%d] = %v, want %v", j, got, want[j])
		}
	}
}

func TestConflictsBudgetExhaustion(t *testing.T) {
	prog := nontrivial()
	_, err := depgraph.Conflicts(prog, 1)
	if err == nil {
		t.Fatal("tiny budget did not abort the scan")
	}
	if !depgraph.IsBudgetExhausted(err) {
		t.Fatalf("want a *BudgetError, got %T: %v", err, err)
	}
	var berr *depgraph.BudgetError
	if !errors.As(err, &berr) {
		t.Fatalf("errors.As failed on %v", err)
	}
	if berr.Budget != 1 || berr.Instrs != len(prog.Instrs) || berr.Instr < 0 || berr.Instr >= berr.Instrs {
		t.Fatalf("budget error fields off: %+v", berr)
	}
}
