package perf_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/lint/perf"
)

// randomProgram emits a random but well-formed mix of loads, stores,
// vector work, scalar control, barriers and matched flag pairs. All
// addresses stay inside a 64 KiB working window of each scratch-pad, so
// every generated program runs on a default core.
func randomProgram(rng *rand.Rand, name string) *cce.Program {
	p := cce.New(name)
	const window = 64 << 10
	addr := func() int { return 32 * rng.Intn(window/32-64) }
	n := 20 + rng.Intn(60)
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1: // GM -> UB load
			p.EmitCopy(isa.GM, addr(), isa.UB, addr(), 32*(1+rng.Intn(32)))
		case 2: // GM -> L1 load
			p.EmitCopy(isa.GM, addr(), isa.L1, addr(), 32*(1+rng.Intn(32)))
		case 3: // UB -> GM store
			p.EmitCopy(isa.UB, addr(), isa.GM, addr(), 32*(1+rng.Intn(32)))
		case 4, 5, 6: // full-width elementwise chain on the UB
			p.EmitElementwiseScalar(isa.VAdds, isa.UB, addr(), addr(), 0,
				16*(1+rng.Intn(128)), fp16.FromFloat32(1))
		case 7: // narrow-mask vector instruction
			p.EmitVec(isa.VAdds, isa.Contig(isa.UB, addr()), isa.Contig(isa.UB, addr()),
				isa.Operand{}, fp16.FromFloat32(1), isa.MaskFirstN(8+8*rng.Intn(16)), 1+rng.Intn(8))
		case 8: // scalar control
			p.EmitScalar(1+rng.Intn(50), "control")
		default: // sync: a barrier, or a matched set/wait pair
			if rng.Intn(2) == 0 {
				p.EmitBarrier()
			} else {
				pipes := []isa.Pipe{isa.PipeMTE2, isa.PipeVector, isa.PipeMTE3, isa.PipeScalar}
				src := pipes[rng.Intn(len(pipes))]
				dst := pipes[rng.Intn(len(pipes))]
				if src == dst {
					dst = pipes[(rng.Intn(len(pipes))+1)%len(pipes)]
					if src == dst {
						dst = isa.PipeMTE1
					}
				}
				ev := rng.Intn(4)
				p.Emit(&isa.SetFlagInstr{SrcPipe: src, DstPipe: dst, Event: ev})
				p.Emit(&isa.WaitFlagInstr{SrcPipe: src, DstPipe: dst, Event: ev})
			}
		}
	}
	return p
}

// isSync reports whether in participates in the sync protocol; those
// instructions anchor the order and are never swapped.
func isSync(in isa.Instr) bool {
	switch in.(type) {
	case *isa.BarrierInstr, *isa.SetFlagInstr, *isa.WaitFlagInstr:
		return true
	}
	return false
}

// swappable reports whether two adjacent instructions can exchange
// places without changing the schedule's meaning: different pipes (each
// pipe's own order is untouched), neither is sync, and no conflicting
// access pair (at least one write to an overlapping region) exists
// between them.
func swappable(a, b isa.Instr) bool {
	if isSync(a) || isSync(b) || a.Pipe() == b.Pipe() {
		return false
	}
	conflicts := func(x, y isa.Instr) bool {
		xw, yr, yw := x.Writes(), y.Reads(), y.Writes()
		for i := range xw.Len() {
			w := xw.At(i)
			for k := range yr.Len() {
				if w.Overlaps(yr.At(k)) {
					return true
				}
			}
			for k := range yw.Len() {
				if w.Overlaps(yw.At(k)) {
					return true
				}
			}
		}
		return false
	}
	return !conflicts(a, b) && !conflicts(b, a)
}

// permuteSchedulePreserving applies random adjacent swaps of independent
// cross-pipe instruction pairs — reorderings under which the dependence
// structure, and therefore every order-independent metric, must not
// change.
func permuteSchedulePreserving(rng *rand.Rand, prog *cce.Program) *cce.Program {
	instrs := append([]isa.Instr(nil), prog.Instrs...)
	if len(instrs) > 1 {
		for tries := 0; tries < 4*len(instrs); tries++ {
			i := rng.Intn(len(instrs) - 1)
			if swappable(instrs[i], instrs[i+1]) {
				instrs[i], instrs[i+1] = instrs[i+1], instrs[i]
			}
		}
	}
	perm := cce.New(prog.Name + "_perm")
	for _, in := range instrs {
		perm.Emit(in)
	}
	return perm
}

// orderFree projects the order-independent slice of a report: single-pass
// sums, maxima and histograms that any schedule-preserving reordering
// must leave untouched. (CritPath and the stall attribution legitimately
// depend on program order and are excluded.)
func orderFree(r *perf.Report) map[string]any {
	return map[string]any{
		"Instrs":      r.Instrs,
		"PipeBusy":    r.PipeBusy,
		"PipeInstrs":  r.PipeInstrs,
		"BusyBound":   r.BusyBound,
		"Serial":      r.SerialCycles,
		"SplitInstrs": r.SplitInstrs,
		"SplitWaste":  r.SplitWaste,
		"Footprint":   r.Footprint,
		"Vector":      r.Vector,
		"Traffic":     r.Traffic,
		"Flags":       r.Sync.Flags,
		"Barriers":    r.Sync.Barriers,
	}
}

// TestQuickBoundsRandomPrograms is the analyzer's property test: on
// randomized programs the bound invariant (busy <= simulated <= critical
// path <= serial, serialize-mode == SerialCycles) holds, and the
// order-independent metrics survive schedule-preserving reorderings —
// which must themselves still satisfy the invariant.
func TestQuickBoundsRandomPrograms(t *testing.T) {
	progs := 50
	if testing.Short() {
		progs = 10
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < progs; i++ {
		prog := randomProgram(rng, fmt.Sprintf("quick_%d", i))
		r := checkBounds(t, prog)

		perm := permuteSchedulePreserving(rng, prog)
		rp := checkBounds(t, perm)
		if got, want := orderFree(rp), orderFree(r); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: order-independent metrics changed under a schedule-preserving permutation:\n got %v\nwant %v",
				prog.Name, got, want)
		}
		if t.Failed() {
			t.Fatalf("%s: stopping after first failing program", prog.Name)
		}
	}
}
