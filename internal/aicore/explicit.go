package aicore

import (
	"fmt"

	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/lint"
)

// RunExplicit executes prog under explicit synchronization semantics, the
// way real CCE C programs run: pipelines are ordered only by their own
// in-order issue, by pipe barriers, and by set_flag/wait_flag tokens — the
// implicit hazard scoreboard of Run is NOT consulted for timing. After
// scheduling, a race detector verifies that every data dependency in the
// program is ordered by the explicit schedule; a missing flag surfaces as
// a race error, exactly the bug class real CCE kernels suffer.
//
// Functional execution runs the flattened trace in program order, which
// is valid for any race-free program; the schedule is TimeExplicit's.
func (c *Core) RunExplicit(prog *cce.Program) (*Stats, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if c.Strict {
		// Explicit semantics: cross-pipe ordering must come from flags
		// and barriers, so the full pass suite applies.
		if err := c.lintStrict(prog, lint.SyncExplicit); err != nil {
			return nil, err
		}
	}
	fp := Flatten(prog)
	if _, err := c.execOps(fp); err != nil {
		return nil, err
	}
	return c.TimeExplicit(prog)
}

// TimeExplicit schedules prog under explicit synchronization without
// executing it, the timing half of RunExplicit: an event-driven walk over
// per-pipe in-order queues in which a wait_flag consumes a token its
// set_flag produced, a barrier starts once every earlier instruction has
// completed, and no instruction is placed while a barrier before it in
// program order is still unplaced. On a traced core it records each
// instruction as it is placed. A wait whose token never arrives ends the
// walk with a *DeadlockError naming the blocked pipe and flag (the trace
// then holds what was placed); a data dependency the schedule leaves
// unordered is a race error.
func (c *Core) TimeExplicit(prog *cce.Program) (*Stats, error) {
	type item struct {
		idx int
		in  isa.Instr
	}
	type token struct {
		t      int64 // availability time
		setter int   // instruction index of the set_flag
	}
	var pipes [isa.NumPipes][]item
	var barriers []int // barrier indices, in program (= placement) order
	for idx, in := range prog.Instrs {
		p := in.Pipe()
		pipes[p] = append(pipes[p], item{idx, in})
		if _, ok := in.(*isa.BarrierInstr); ok {
			barriers = append(barriers, idx)
		}
	}
	var heads [isa.NumPipes]int
	var pipeFree [isa.NumPipes]int64
	start := make([]int64, len(prog.Instrs))
	end := make([]int64, len(prog.Instrs))
	tokens := map[[3]int][]token{} // (src, dst, event) -> pending tokens
	completed := 0
	stats := &Stats{}
	var barrierFloor int64
	if c.Trace != nil {
		c.Trace.grow(len(prog.Instrs))
	}

	for completed < len(prog.Instrs) {
		progress := false
		for p := isa.Pipe(0); p < isa.NumPipes; p++ {
			for heads[p] < len(pipes[p]) {
				it := pipes[p][heads[p]]
				if len(barriers) > 0 && it.idx > barriers[0] {
					goto nextPipe // behind a barrier not yet placed
				}
				tr := newStallTracker()
				tr.propose(barrierFloor, StallBarrier, 0, -1)
				switch v := it.in.(type) {
				case *isa.WaitFlagInstr:
					key := [3]int{int(v.SrcPipe), int(v.DstPipe), v.Event}
					q := tokens[key]
					if len(q) == 0 {
						goto nextPipe // blocked on a token
					}
					tr.propose(q[0].t, StallFlagWait, 0, q[0].setter)
					tokens[key] = q[1:]
				case *isa.BarrierInstr:
					// A barrier waits for every earlier instruction; none
					// later has been placed, so the count says when.
					if completed < it.idx {
						goto nextPipe
					}
					for _, f := range pipeFree {
						tr.propose(f, StallBarrier, 0, -1)
					}
				}
				s := pipeFree[p]
				if tr.t > s {
					s = tr.t
				}
				e := s + it.in.Cycles(c.Cost)
				stall := tr.resolve(pipeFree[p])
				pipeFree[p] = e
				start[it.idx], end[it.idx] = s, e
				if c.Trace != nil {
					c.Trace.record(it.idx, it.in, s, e, stall)
				}
				if sf, ok := it.in.(*isa.SetFlagInstr); ok {
					key := [3]int{int(sf.SrcPipe), int(sf.DstPipe), sf.Event}
					tokens[key] = append(tokens[key], token{t: e, setter: it.idx})
				}
				if _, ok := it.in.(*isa.BarrierInstr); ok {
					barrierFloor = e
					barriers = barriers[1:]
				}
				stats.PipeBusy[p] += it.in.Cycles(c.Cost)
				stats.PipeInstrs[p]++
				stats.Instrs++
				if cp, ok := it.in.(*isa.CopyInstr); ok {
					switch p {
					case isa.PipeMTE2:
						stats.BytesIn += int64(cp.Bytes())
					case isa.PipeMTE3:
						stats.BytesOut += int64(cp.Bytes())
					}
				}
				if e > stats.Cycles {
					stats.Cycles = e
				}
				completed++
				heads[p]++
				progress = true
			}
		nextPipe:
		}
		if !progress {
			dl := &DeadlockError{Program: prog.Name, Instr: -1}
			for p := isa.Pipe(0); p < isa.NumPipes; p++ {
				if heads[p] >= len(pipes[p]) {
					continue
				}
				it := pipes[p][heads[p]]
				if w, ok := it.in.(*isa.WaitFlagInstr); ok {
					dl.Pipe = p
					dl.Flag = [3]int{int(w.SrcPipe), int(w.DstPipe), w.Event}
					dl.HasFlag = true
					dl.Instr = it.idx
					break
				}
				if dl.Instr < 0 {
					// Fallback: a barrier (or an instruction behind one)
					// blocked behind another pipe's starved wait; still
					// name a blocked pipe.
					dl.Pipe, dl.Instr = p, it.idx
				}
			}
			return nil, dl
		}
	}

	// Race detection: every data dependency must be ordered by the
	// explicit schedule.
	if idx, prod, err := findRace(prog.Instrs, start, end); err != nil {
		return nil, fmt.Errorf("aicore: %s: data race between instr %d (%s) and instr %d (%s): %w",
			prog.Name, prod, prog.Instrs[prod], idx, prog.Instrs[idx], err)
	}
	return stats, nil
}

// DeadlockError reports that an explicitly synchronized program can make
// no progress: some pipe's next instruction is a wait_flag whose set_flag
// never arrives (e.g. because a fault dropped it). It names the blocked
// pipe and the unsatisfied flag, so the hang is typed and diagnosable the
// moment it is found instead of a silent stall.
type DeadlockError struct {
	// Program is the deadlocked program's name.
	Program string
	// Pipe is the pipeline blocked at the head of its queue.
	Pipe isa.Pipe
	// Flag is the (src pipe, dst pipe, event) triple of the unsatisfied
	// wait_flag; meaningful when HasFlag is true.
	Flag [3]int
	// HasFlag reports whether the blocked instruction is a wait_flag (a
	// barrier can also starve, transitively).
	HasFlag bool
	// Instr is the blocked instruction's index in the program.
	Instr int
}

func (e *DeadlockError) Error() string {
	if e.HasFlag {
		return fmt.Sprintf("aicore: %s deadlocked: pipe %v blocked at instr %d on wait_flag(%v->%v, ev%d) with no matching set_flag",
			e.Program, e.Pipe, e.Instr, isa.Pipe(e.Flag[0]), isa.Pipe(e.Flag[1]), e.Flag[2])
	}
	return fmt.Sprintf("aicore: %s deadlocked: pipe %v blocked at instr %d behind a starved wait_flag", e.Program, e.Pipe, e.Instr)
}

// findRace scans dependencies in program order and checks that the
// producer completed before the consumer started. Same-pipe pairs are
// ordered by in-order issue and skipped, and so are pairs a barrier
// separates: TimeExplicit starts nothing after a barrier before it ends.
func findRace(instrs []isa.Instr, start, end []int64) (consumer, producer int, err error) {
	type access struct {
		idx    int
		pipe   isa.Pipe
		region isa.Region
	}
	var writes, reads []access
	for idx, in := range instrs {
		if _, ok := in.(*isa.BarrierInstr); ok {
			// Barriers order everything before them.
			writes, reads = nil, nil
			continue
		}
		pipe := in.Pipe()
		check := func(list []access, r isa.Region) (int, bool) {
			for k := len(list) - 1; k >= 0; k-- {
				a := list[k]
				if a.pipe != pipe && a.region.Overlaps(r) {
					if end[a.idx] > start[idx] {
						return a.idx, true
					}
				}
			}
			return 0, false
		}
		for _, r := range in.Reads() { // RAW
			if p, bad := check(writes, r); bad {
				return idx, p, fmt.Errorf("read of %v not ordered after write", r)
			}
		}
		for _, w := range in.Writes() { // WAW, WAR
			if p, bad := check(writes, w); bad {
				return idx, p, fmt.Errorf("write of %v not ordered after write", w)
			}
			if p, bad := check(reads, w); bad {
				return idx, p, fmt.Errorf("write of %v not ordered after read", w)
			}
		}
		for _, r := range in.Reads() {
			reads = append(reads, access{idx, pipe, r})
		}
		for _, w := range in.Writes() {
			writes = append(writes, access{idx, pipe, w})
		}
	}
	return 0, 0, nil
}
