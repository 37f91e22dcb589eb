// Package depgraph computes the cross-pipe dependence facts of a CCE
// program once, for every client that needs them. The lint hazard pass
// (internal/lint) verifies that an explicit flag/barrier schedule orders
// every dependence; the static optimizer (internal/opt) consults the same
// graph to prove its rewrites legal. Both build on one implementation, so
// the verifier and the optimizer can never disagree about what depends on
// what.
//
// Two views are exposed:
//
//   - Replay symbolically replays aicore.RunExplicit's issue discipline
//     (per-pipe in-order queues, counting tokens for set_flag/wait_flag,
//     barriers that wait for everything before them and hold back
//     everything after them) and records, per
//     instruction, the vector clock of completions guaranteed before it
//     starts. CrossPipeDeps lists the dependencies that clock must order —
//     the latest conflicting cross-pipe access per producing pipe, exactly
//     the set cce.AutoSync synchronizes.
//
//   - Conflicts lists every conflicting program-order pair, same-pipe
//     included: the full constraint set a reordering must preserve for the
//     program-order functional execution to stay bit-identical.
package depgraph

import (
	"errors"
	"fmt"

	"davinci/internal/cce"
	"davinci/internal/isa"
)

// PipeVec is a symbolic vector clock: PipeVec[p] counts how many
// instructions at the front of pipe p's issue queue are guaranteed
// complete.
type PipeVec [isa.NumPipes]int

// Join returns the elementwise maximum of the two clocks.
func (a PipeVec) Join(b PipeVec) PipeVec {
	for i := range a {
		if b[i] > a[i] {
			a[i] = b[i]
		}
	}
	return a
}

// flagChannel identifies one counting-token channel: an ordered pipe pair
// plus an event id.
type flagChannel struct {
	src, dst isa.Pipe
	event    int
}

// Schedule is the symbolic replay of a program's explicit issue
// discipline: instead of cycle times, every instruction gets a vector
// clock of completions guaranteed before it starts.
type Schedule struct {
	// StartClock[i] is instruction i's start clock: StartClock[i][p]
	// instructions at the front of pipe p's queue are complete when i
	// starts. Meaningless for instructions left pending by a deadlock.
	StartClock []PipeVec
	// Pos[i] is instruction i's position within its pipe's issue queue.
	Pos []int
	// PipeOf[i] is instruction i's pipe.
	PipeOf []isa.Pipe
	// Deadlocked lists the blocked queue heads (program indices, in pipe
	// order) when the schedule cannot complete; empty otherwise. Every
	// pipe with pending work contributes its head.
	Deadlocked []int
}

// Ordered reports whether the schedule guarantees that instruction
// producer completes before instruction consumer starts. Because pipes
// issue in order, producer's completion is visible exactly when
// consumer's start clock covers producer's queue position.
func (s *Schedule) Ordered(consumer, producer int) bool {
	return s.StartClock[consumer][s.PipeOf[producer]] >= s.Pos[producer]+1
}

// Replay symbolically replays prog's explicit issue discipline: per-pipe
// in-order queues, counting tokens for set_flag/wait_flag, and barriers
// that wait for everything before them; nothing starts while a barrier
// before it in program order is still pending, as in
// aicore.Core.TimeExplicit. If the schedule cannot complete (a wait with
// no token), the returned Schedule lists the blocked heads in Deadlocked.
func Replay(prog *cce.Program) *Schedule {
	n := len(prog.Instrs)
	type item struct {
		idx int
		in  isa.Instr
	}
	var pipes [isa.NumPipes][]item
	var barriers []int // barrier indices, in program (= placement) order
	s := &Schedule{
		StartClock: make([]PipeVec, n),
		Pos:        make([]int, n),
		PipeOf:     make([]isa.Pipe, n),
	}
	for idx, in := range prog.Instrs {
		p := in.Pipe()
		s.PipeOf[idx] = p
		s.Pos[idx] = len(pipes[p])
		pipes[p] = append(pipes[p], item{idx, in})
		if _, ok := in.(*isa.BarrierInstr); ok {
			barriers = append(barriers, idx)
		}
	}
	// before[i][p] counts instructions on pipe p with program index < i:
	// the completions a barrier at index i waits for.
	before := make([]PipeVec, n+1)
	for idx := range prog.Instrs {
		before[idx+1] = before[idx]
		before[idx+1][s.PipeOf[idx]]++
	}

	var heads [isa.NumPipes]int
	var pipeClock [isa.NumPipes]PipeVec
	tokens := map[flagChannel][]PipeVec{}
	completed := 0

	for completed < n {
		progress := false
		for p := isa.Pipe(0); p < isa.NumPipes; p++ {
			for heads[p] < len(pipes[p]) {
				it := pipes[p][heads[p]]
				if len(barriers) > 0 && it.idx > barriers[0] {
					goto nextPipe // behind a barrier still pending
				}
				clk := pipeClock[p]
				switch v := it.in.(type) {
				case *isa.WaitFlagInstr:
					k := flagChannel{v.SrcPipe, v.DstPipe, v.Event}
					q := tokens[k]
					if len(q) == 0 {
						goto nextPipe // blocked until a token arrives
					}
					clk = clk.Join(q[0])
					tokens[k] = q[1:]
				case *isa.BarrierInstr:
					// None later has started, so the count says whether an
					// earlier instruction is still pending.
					if completed < it.idx {
						goto nextPipe
					}
					clk = clk.Join(before[it.idx])
				}
				if s.Pos[it.idx] > clk[p] {
					clk[p] = s.Pos[it.idx] // in-order issue: earlier same-pipe work is done
				}
				s.StartClock[it.idx] = clk
				end := clk
				end[p] = s.Pos[it.idx] + 1
				if sf, ok := it.in.(*isa.SetFlagInstr); ok {
					k := flagChannel{sf.SrcPipe, sf.DstPipe, sf.Event}
					tokens[k] = append(tokens[k], end)
				}
				if _, ok := it.in.(*isa.BarrierInstr); ok {
					// Nothing later on any pipe starts before the barrier ends.
					for q := range pipeClock {
						pipeClock[q] = pipeClock[q].Join(end)
					}
					barriers = barriers[1:]
				}
				pipeClock[p] = end
				completed++
				heads[p]++
				progress = true
			}
		nextPipe:
		}
		if !progress {
			// Deadlock: every pipe with pending work is blocked on a token
			// that will never arrive.
			for p := isa.Pipe(0); p < isa.NumPipes; p++ {
				if heads[p] < len(pipes[p]) {
					s.Deadlocked = append(s.Deadlocked, pipes[p][heads[p]].idx)
				}
			}
			return s
		}
	}
	return s
}

// Dependence kinds, named the way the lint diagnostics render them.
const (
	ReadAfterWrite  = "read-after-write"
	WriteAfterWrite = "write-after-write"
	WriteAfterRead  = "write-after-read"
)

// Dep is one cross-pipe dependence: instruction Consumer must not start
// before instruction Producer completes.
type Dep struct {
	Consumer int
	Producer int
	// Kind is ReadAfterWrite, WriteAfterWrite or WriteAfterRead.
	Kind string
	// Region is the consumer's conflicting access region.
	Region isa.Region
}

// CrossPipeDeps scans prog in program order and returns, per instruction,
// the latest conflicting cross-pipe access per producing pipe — exactly
// the dependence set cce.AutoSync synchronizes. Barriers cut the scan:
// they order everything across them, so accesses before a barrier never
// produce a dependence after it. Because pipes issue in order, ordering
// the latest conflicting access per producing pipe orders every earlier
// one on that pipe too.
//
// Deps come back grouped by consumer (ascending program index), and
// within one consumer by producing pipe. When several of a consumer's
// accesses conflict with the same producing pipe, the dep with the
// largest producer index wins, considered in the order reads (RAW), then
// writes (WAW before WAR) — ties keep the earlier consideration.
func CrossPipeDeps(prog *cce.Program) []Dep {
	type access struct {
		idx    int
		pipe   isa.Pipe
		region isa.Region
	}
	var deps []Dep
	var writes, reads []access
	for idx, in := range prog.Instrs {
		if _, ok := in.(*isa.BarrierInstr); ok {
			writes, reads = nil, nil
			continue
		}
		pipe := in.Pipe()
		var latest [isa.NumPipes]*Dep
		consider := func(list []access, kind string, r isa.Region) {
			for _, a := range list {
				if a.pipe == pipe || !a.region.Overlaps(r) {
					continue
				}
				if cur := latest[a.pipe]; cur == nil || a.idx > cur.Producer {
					latest[a.pipe] = &Dep{Consumer: idx, Producer: a.idx, Kind: kind, Region: r}
				}
			}
		}
		inReads, inWrites := in.Reads(), in.Writes()
		for i := range inReads.Len() {
			consider(writes, ReadAfterWrite, inReads.At(i))
		}
		for i := range inWrites.Len() {
			w := inWrites.At(i)
			consider(writes, WriteAfterWrite, w)
			consider(reads, WriteAfterRead, w)
		}
		for _, d := range latest {
			if d != nil {
				deps = append(deps, *d)
			}
		}
		for i := range inReads.Len() {
			reads = append(reads, access{idx, pipe, inReads.At(i)})
		}
		for i := range inWrites.Len() {
			writes = append(writes, access{idx, pipe, inWrites.At(i)})
		}
	}
	return deps
}

// BudgetError reports that Conflicts gave up before finishing: the
// pairwise region scan hit its comparison budget at instruction Instr of
// Instrs. The program is then unanalyzable — callers must not assume
// independence — but the degradation is typed and countable instead of a
// silent boolean, so a skipped O2 rescheduling shows up in optimizer
// reports and the depgraph_budget_exhausted counter rather than looking
// like "nothing to do".
type BudgetError struct {
	// Budget is the region-pair comparison cap the scan was given.
	Budget int
	// Instr is the program index where the budget ran out; Instrs is the
	// program length, so reports can say how far the scan got.
	Instr, Instrs int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("depgraph: conflict scan budget (%d region pairs) exhausted at instruction %d of %d",
		e.Budget, e.Instr, e.Instrs)
}

// IsBudgetExhausted reports whether err is a Conflicts budget exhaustion.
func IsBudgetExhausted(err error) bool {
	var e *BudgetError
	return errors.As(err, &e)
}

// Conflicts returns, per instruction, the earlier instructions it
// conflicts with: pairs whose accesses touch overlapping bytes of one
// buffer with at least one side writing, regardless of pipe. Any
// reordering that keeps every such pair in program order leaves the
// program-order functional execution bit-identical, because non-
// conflicting instructions commute on memory.
//
// The scan is quadratic per buffer; budget caps the region-pair
// comparisons. When the budget runs out the scan aborts and returns a
// *BudgetError — callers must then treat the program as unanalyzable
// rather than assume independence.
func Conflicts(prog *cce.Program, budget int) (preds [][]int32, err error) {
	type access struct {
		idx      int32
		write    bool
		off, end int
	}
	var byBuf [isa.NumBufs][]access
	preds = make([][]int32, len(prog.Instrs))
	add := func(j int32, i int32) {
		ps := preds[j]
		if len(ps) > 0 && ps[len(ps)-1] == i {
			return
		}
		for _, p := range ps {
			if p == i {
				return
			}
		}
		preds[j] = append(ps, i)
	}
	total := budget
	for idx, in := range prog.Instrs {
		j := int32(idx)
		scan := func(r isa.Region, write bool) bool {
			list := byBuf[r.Buf]
			budget -= len(list)
			if budget < 0 {
				return false
			}
			for _, a := range list {
				if (a.write || write) && a.off < r.End && r.Off < a.end && a.idx != j {
					add(j, a.idx)
				}
			}
			byBuf[r.Buf] = append(list, access{j, write, r.Off, r.End})
			return true
		}
		reads, writes := in.Reads(), in.Writes()
		for i := range reads.Len() {
			if !scan(reads.At(i), false) {
				return nil, &BudgetError{Budget: total, Instr: idx, Instrs: len(prog.Instrs)}
			}
		}
		for i := range writes.Len() {
			if !scan(writes.At(i), true) {
				return nil, &BudgetError{Budget: total, Instr: idx, Instrs: len(prog.Instrs)}
			}
		}
	}
	return preds, nil
}
