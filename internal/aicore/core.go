// Package aicore simulates one DaVinci AI Core executing a CCE program:
// functionally (instructions transform bytes in the simulated buffers) and
// temporally (a timing model charges cycles per instruction and overlaps
// the Scalar, Vector, Cube and MTE pipelines subject to data hazards,
// mirroring the synchronized multi-pipeline execution of §III-A).
package aicore

import (
	"errors"
	"fmt"
	"sort"

	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/lint"
)

// ErrInterrupted is returned (wrapped with the program position) when a
// run is abandoned because the core's Cancel channel closed — a chip-level
// abort after another core failed, or the caller cancelling the run.
var ErrInterrupted = errors.New("interrupted")

// Core is one AI Core: a memory system plus a timing configuration.
type Core struct {
	Mem  *buffer.Set
	Cost *isa.CostModel
	// Serialize disables pipeline overlap (every instruction waits for
	// the previous one); used by the scheduling ablation benchmarks.
	Serialize bool
	// Trace, when non-nil, records every scheduled instruction for
	// timeline visualization.
	Trace *Trace
	// Strict enables the static verifier (internal/lint): every program
	// is linted against this core's buffer capacities before execution,
	// and any error-severity finding aborts the run. Opt-in because the
	// analysis is quadratic in instruction count.
	Strict bool
	// Cancel, when non-nil, cooperatively interrupts execution: every
	// instruction loop polls it and returns ErrInterrupted once it is
	// closed. The chip layer points it at the run's context, so a
	// fail-fast abort or the caller's cancellation stops a core that is
	// mid-program.
	Cancel <-chan struct{}
}

// interrupted polls the Cancel channel without blocking.
func (c *Core) interrupted() bool {
	if c.Cancel == nil {
		return false
	}
	select {
	case <-c.Cancel:
		return true
	default:
		return false
	}
}

// lintStrict runs the static verifier over prog with the core's buffer
// capacities, failing on any error-severity diagnostic.
func (c *Core) lintStrict(prog *cce.Program, mode lint.SyncMode) error {
	diags := lint.CheckWith(lint.Options{Caps: c.Mem.Capacities(), Mode: mode}, prog)
	if errs := lint.Errors(diags); len(errs) > 0 {
		return fmt.Errorf("aicore: %s: strict lint: %d error(s), first: %s", prog.Name, len(errs), errs[0])
	}
	return nil
}

// New creates a core with the given buffer configuration and cost model.
// A nil cost model takes the calibrated default.
func New(cfg buffer.Config, cost *isa.CostModel) *Core {
	if cost == nil {
		cost = isa.DefaultCostModel()
	}
	return &Core{Mem: buffer.NewSet(cfg), Cost: cost}
}

// Stats aggregates the timing outcome of one or more program runs.
type Stats struct {
	// Cycles is the makespan: the completion time of the last instruction.
	Cycles int64
	// PipeBusy is the total busy time per pipeline.
	PipeBusy [isa.NumPipes]int64
	// PipeInstrs is the instruction count per pipeline.
	PipeInstrs [isa.NumPipes]int64
	// Instrs is the total instruction count.
	Instrs int64
	// BytesIn is the global-memory read traffic (MTE2 payload).
	BytesIn int64
	// BytesOut is the global-memory write traffic (MTE3 payload).
	BytesOut int64
}

// AddSerial accumulates o as if it ran after s (cycles add).
func (s *Stats) AddSerial(o *Stats) {
	s.Cycles += o.Cycles
	s.Instrs += o.Instrs
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
	for i := range s.PipeBusy {
		s.PipeBusy[i] += o.PipeBusy[i]
		s.PipeInstrs[i] += o.PipeInstrs[i]
	}
}

// AddParallel accumulates o as if it ran concurrently with s on another
// core (cycles take the maximum, work adds).
func (s *Stats) AddParallel(o *Stats) {
	if o.Cycles > s.Cycles {
		s.Cycles = o.Cycles
	}
	s.Instrs += o.Instrs
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
	for i := range s.PipeBusy {
		s.PipeBusy[i] += o.PipeBusy[i]
		s.PipeInstrs[i] += o.PipeInstrs[i]
	}
}

func (s *Stats) String() string {
	return fmt.Sprintf("cycles=%d instrs=%d vec=%d(%dcyc) mte1=%d mte2=%d mte3=%d cube=%d",
		s.Cycles, s.Instrs,
		s.PipeInstrs[isa.PipeVector], s.PipeBusy[isa.PipeVector],
		s.PipeInstrs[isa.PipeMTE1], s.PipeInstrs[isa.PipeMTE2],
		s.PipeInstrs[isa.PipeMTE3], s.PipeInstrs[isa.PipeCube])
}

// interval is a byte range with the completion time and instruction index
// of its last accessor (the index feeds stall attribution).
type interval struct {
	off, end int
	t        int64
	idx      int
}

// bufTimes tracks recent reads and writes of one buffer for hazard
// resolution. Histories are bounded: old entries fold into a floor time
// that conservatively applies to the whole buffer (by then execution has
// advanced past it, so precision is only needed for recent accesses).
// lastW and lastR are the latest completion times recorded in writes and
// reads; folding drops only a list's older half, so they never fall
// below an entry.
type bufTimes struct {
	writes, reads  []interval
	floorW, floorR int64
	lastW, lastR   int64
}

const historyCap = 96

// appendAccess appends iv to list, raising *last to its completion time,
// and folds the list's older half into *floor once it exceeds historyCap.
func appendAccess(list []interval, iv interval, last, floor *int64) []interval {
	list = append(list, iv)
	*last = max(*last, iv.t)
	if len(list) > historyCap {
		list = foldOldest(list, floor)
	}
	return list
}

func foldOldest(list []interval, floor *int64) []interval {
	// Fold the older half (by completion time) into the floor.
	sort.Slice(list, func(i, j int) bool { return list[i].t < list[j].t })
	half := len(list) / 2
	for _, iv := range list[:half] {
		if iv.t > *floor {
			*floor = iv.t
		}
	}
	return append(list[:0], list[half:]...)
}

// lastOverlap returns the latest completion time and instruction index of
// the accesses in list that overlap r; (0, -1) when none does.
func lastOverlap(list []interval, r isa.Region) (int64, int) {
	var t int64
	idx := -1
	for _, iv := range list {
		if iv.off < r.End && r.Off < iv.end && iv.t > t {
			t, idx = iv.t, iv.idx
		}
	}
	return t, idx
}

// Run validates, executes and times prog, returning its stats: the
// flattened trace (Flatten, ExecFlat) computes the data and one walk of
// the data-free scoreboard (Time) the Stats and, on a traced core, the
// trace. Functional state (buffer contents) reflects the completed
// program. If instruction i fails, the trace keeps the entries of the
// instructions before i.
func (c *Core) Run(prog *cce.Program) (*Stats, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if c.Strict {
		// Run's scoreboard orders hazards implicitly, so verify the
		// implicit-sync contract (bounds, invariants, flag protocol).
		if err := c.lintStrict(prog, lint.SyncImplicit); err != nil {
			return nil, err
		}
	}
	fp := Flatten(prog)
	ran, err := c.execOps(fp)
	st := walk(prog.Instrs[:ran], c.Cost, c.Serialize, c.Trace)
	if err != nil {
		return nil, err
	}
	return st, nil
}
