package aicore_test

import (
	"fmt"
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/kernelcases"
	"davinci/internal/ops"
	"davinci/internal/workloads"
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

// TestScanSkipMatchesFullScan: the scoreboard skips a hazard-history scan
// only when the scan cannot bind. For every catalogue kernel at the three
// Fig. 7 layers, the banded k3s2 Resnet50 112x112 layer and the k2s2
// VGG16 56x56 layer, Time's walk gives every instruction the start, end
// and stall (cause, cycles, buffer, producer) of a scoreboard that scans
// every history in full, and a Board's StartOf peeks the same start.
func TestScanSkipMatchesFullScan(t *testing.T) {
	layers := workloads.InceptionV3Fig7()
	for _, l := range workloads.TableI {
		if l.Network == "Resnet50" || (l.Network == "VGG16" && l.H == 56) {
			layers = append(layers, l)
		}
	}
	checked, instrs := 0, 0
	for _, layer := range layers {
		for _, kc := range kernelcases.All() {
			pl, err := kc.Plan(ops.Spec{}, layer.Params())
			if err != nil {
				if kernelcases.IsCapacitySkip(err) {
					continue
				}
				t.Fatalf("%s %dx%d: compile: %v", kc.Name, layer.H, layer.W, err)
			}
			name := fmt.Sprintf("%s %dx%d", kc.Name, layer.H, layer.W)
			want := aicore.FullScanSchedule(pl.Prog, nil)
			core := aicore.New(buffer.Config{}, nil)
			core.Trace = &aicore.Trace{}
			core.TraceUpTo(pl.Prog, len(pl.Prog.Instrs))
			b := aicore.NewBoard(nil)
			for idx, e := range core.Trace.Entries {
				w := want[idx]
				if e.Start != w.Start || e.End != w.End || e.Stall != w.Stall {
					t.Fatalf("%s: instr %d (%s): walk placed [%d,%d) %v, full scan [%d,%d) %v",
						name, idx, e.Text, e.Start, e.End, e.Stall, w.Start, w.End, w.Stall)
				}
				in := pl.Prog.Instrs[idx]
				if got := b.StartOf(in); got != w.Start {
					t.Fatalf("%s: instr %d (%s): StartOf = %d, full scan starts at %d", name, idx, e.Text, got, w.Start)
				}
				b.Place(in, idx)
			}
			checked++
			instrs += len(want)
		}
	}
	t.Logf("%d kernel x layer programs, %d instructions placed as by the full scan", checked, instrs)
}
