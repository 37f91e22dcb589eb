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
// abort after another core failed, or a watchdog reclaiming a hung tile.
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
	// OnProgram, when non-nil, observes every program handed to Run or
	// RunExplicit before execution. cmd/davinci-lint uses it to capture
	// the instruction streams the kernels emit for offline linting.
	OnProgram func(*cce.Program)
	// Cancel, when non-nil, cooperatively interrupts execution: every
	// instruction loop polls it and returns ErrInterrupted once it is
	// closed. The chip layer points it at a per-attempt context so a
	// run-wide abort or a per-tile watchdog can reclaim a core that is
	// mid-program (or hung inside a blocking hook).
	Cancel <-chan struct{}
	// OnInstr, when non-nil, observes every instruction immediately before
	// its functional execution on the interpreted paths (Run, Replay,
	// ExecOnly, RunExplicit); a non-nil error aborts the run. The fault
	// injector (internal/faults) uses it to perturb runs at a chosen
	// instruction. The flattened fast path does not consult it, so plans
	// interpret the program while a hook is armed (see ops.Plan).
	OnInstr func(idx int, in isa.Instr) error
	// ReplayWith, when non-nil, replaces cached-program execution in
	// ops.Plan.Run: the plan binds inputs and reads outputs as usual but
	// delegates the replay itself to this hook. The fault injector uses it
	// to run a perturbed copy of the program (e.g. with a set_flag
	// dropped) under explicit synchronization semantics.
	ReplayWith func(*cce.Program) (*Stats, error)
	// HangOnDeadlock makes RunExplicit model a deadlocked program the way
	// hardware would — spinning forever on the unsatisfied wait_flag —
	// by blocking on Cancel before returning the DeadlockError. Without a
	// Cancel channel the error returns immediately.
	HangOnDeadlock bool
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
type bufTimes struct {
	writes, reads  []interval
	floorW, floorR int64
}

const historyCap = 96

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

func (b *bufTimes) lastOverlap(list []interval, r isa.Region) (int64, int) {
	var t int64
	idx := -1
	for _, iv := range list {
		if iv.off < r.End && r.Off < iv.end && iv.t > t {
			t, idx = iv.t, iv.idx
		}
	}
	return t, idx
}

// Run validates, executes and times prog, returning its stats. Functional
// state (buffer contents) reflects the completed program.
func (c *Core) Run(prog *cce.Program) (*Stats, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if c.OnProgram != nil {
		c.OnProgram(prog)
	}
	if c.Strict {
		// Run's scoreboard orders hazards implicitly, so verify the
		// implicit-sync contract (bounds, invariants, flag protocol).
		if err := c.lintStrict(prog, lint.SyncImplicit); err != nil {
			return nil, err
		}
	}
	return c.schedule(prog)
}

// Replay interprets and times a pre-compiled program, skipping per-run
// validation and strict linting: a plan (internal/ops) validates — and, for
// strict specs, lints — the instruction stream once at compile time. Plans
// call it only on a core with an OnInstr hook armed; other runs take the
// flattened trace (ExecFlat) and the data-free Time. Timing and
// functional semantics are identical to Run.
func (c *Core) Replay(prog *cce.Program) (*Stats, error) {
	if c.OnProgram != nil {
		c.OnProgram(prog)
	}
	return c.schedule(prog)
}

// ExecOnly executes prog functionally — in program order, like Run — but
// computes no schedule and no stats. Translation validation
// (internal/opt) compares two programs' data effects with it.
func (c *Core) ExecOnly(prog *cce.Program) error {
	if c.OnProgram != nil {
		c.OnProgram(prog)
	}
	for idx, in := range prog.Instrs {
		if err := c.step(prog, idx, in); err != nil {
			return err
		}
	}
	return nil
}

// step interprets instruction idx of prog: it polls Cancel, consults
// OnInstr and executes in, naming the instruction in any error.
func (c *Core) step(prog *cce.Program, idx int, in isa.Instr) error {
	if c.interrupted() {
		return fmt.Errorf("aicore: %s instr %d: %w", prog.Name, idx, ErrInterrupted)
	}
	if c.OnInstr != nil {
		if err := c.OnInstr(idx, in); err != nil {
			return fmt.Errorf("aicore: %s instr %d (%s): %w", prog.Name, idx, in, err)
		}
	}
	if err := c.exec(in); err != nil {
		return fmt.Errorf("aicore: %s instr %d (%s): %w", prog.Name, idx, in, err)
	}
	return nil
}

// schedule is the shared body of Run and Replay: the timing walk (see
// walk, which also backs the data-free Time) with each instruction
// executed functionally, in program order, just before it is placed.
// In-order issue per pipe plus hazard-respecting start times make
// program order equivalent to the timed order for data.
func (c *Core) schedule(prog *cce.Program) (*Stats, error) {
	return walk(prog.Instrs, c.Cost, c.Serialize, c.Trace, func(idx int, in isa.Instr) error {
		return c.step(prog, idx, in)
	})
}
