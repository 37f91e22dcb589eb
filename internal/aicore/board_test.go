package aicore_test

import (
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/isa"
)

// timingProg mixes hazards, flags and a barrier across four pipes so the
// static oracle has every scoreboard rule to reproduce.
func timingProg() *cce.Program {
	p := cce.New("timing")
	p.Emit(&isa.CopyInstr{SrcBuf: isa.GM, SrcAddr: 0, DstBuf: isa.UB, DstAddr: 0, NBurst: 4, BurstBytes: 256, SrcGap: 64})
	p.Emit(&isa.SetFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 1})
	p.Emit(&isa.WaitFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 1})
	p.Emit(&isa.VecInstr{Op: isa.VAdd, Dst: isa.Contig(isa.UB, 4096), Src0: isa.Contig(isa.UB, 0),
		Src1: isa.Contig(isa.UB, 256), Mask: isa.FullMask(), Repeat: 4})
	p.Emit(&isa.VecInstr{Op: isa.VMax, Dst: isa.Contig(isa.UB, 8192), Src0: isa.Contig(isa.UB, 4096),
		Src1: isa.Contig(isa.UB, 4096), Mask: isa.FullMask(), Repeat: 2})
	p.Emit(&isa.BarrierInstr{})
	p.Emit(&isa.CopyInstr{SrcBuf: isa.UB, SrcAddr: 8192, DstBuf: isa.GM, DstAddr: 8192, NBurst: 1, BurstBytes: 512})
	p.Emit(&isa.CopyInstr{SrcBuf: isa.GM, SrcAddr: 0, DstBuf: isa.UB, DstAddr: 0, NBurst: 1, BurstBytes: 1024})
	return p
}

// TestTimeMatchesRun pins the static cycle oracle to the simulator: Time
// must report exactly the makespan Run computes, with and without
// pipelining.
func TestTimeMatchesRun(t *testing.T) {
	for _, serialize := range []bool{false, true} {
		core := aicore.New(buffer.Config{}, nil)
		core.Serialize = serialize
		st, err := core.Run(timingProg())
		if err != nil {
			t.Fatalf("serialize=%v: %v", serialize, err)
		}
		if got := aicore.Time(timingProg(), nil, serialize).Cycles; got != st.Cycles {
			t.Errorf("serialize=%v: Time = %d, Run = %d", serialize, got, st.Cycles)
		}
	}
}

// TestBoardIncrementalMatchesTime checks that placing instructions one by
// one on a Board reproduces the one-shot oracle, and that StartOf peeks
// without committing state.
func TestBoardIncrementalMatchesTime(t *testing.T) {
	prog := timingProg()
	b := aicore.NewBoard(nil)
	for idx, in := range prog.Instrs {
		peek := b.StartOf(in)
		again := b.StartOf(in)
		if peek != again {
			t.Fatalf("instr %d: StartOf not idempotent: %d then %d", idx, peek, again)
		}
		start, end := b.Place(in, idx)
		if start != peek {
			t.Errorf("instr %d: StartOf = %d but Place started at %d", idx, peek, start)
		}
		if end < start {
			t.Errorf("instr %d: end %d before start %d", idx, end, start)
		}
	}
	if want := aicore.Time(prog, nil, false).Cycles; b.Cycles() != want {
		t.Errorf("Board cycles = %d, Time = %d", b.Cycles(), want)
	}
}
