package opt

import (
	"errors"
	"sort"

	"davinci/internal/aicore"
	"davinci/internal/cce"
	"davinci/internal/depgraph"
	"davinci/internal/isa"
)

const (
	// rescheduleMaxInstrs bounds the programs the list scheduler attempts;
	// above it the conflict graph alone is too expensive.
	rescheduleMaxInstrs = 4000
	// rescheduleBudget caps the pairwise region comparisons spent building
	// the conflict graph (depgraph.Conflicts).
	rescheduleBudget = 8_000_000
	// rescheduleWindow is how many ready instructions the scheduler probes
	// per step (highest critical-path priority first).
	rescheduleWindow = 32
)

// reschedule reorders instructions, preserving every conflicting pair in
// program order, to overlap pipes and shrink the makespan: greedy list
// scheduling over the full conflict DAG (depgraph.Conflicts — not just
// the per-pipe latest-producer edges, which under-constrain reordering),
// driven by the same timing scoreboard the simulator uses
// (aicore.Board), with longest-path-to-exit priorities. Any topological
// order of the conflict DAG leaves the program-order functional
// execution bit-identical, because non-conflicting instructions commute
// on memory; the pass only returns a reorder that the scoreboard proves
// strictly faster.
//
// Programs still carrying flags or barriers are left alone: their
// explicit schedule is an intent the reorder would have to re-derive.
//
// The returned *depgraph.BudgetError is non-nil when the conflict scan
// gave up before finishing — the pass then did nothing, and the caller
// records the skip instead of letting it pass for "no improvement found".
func reschedule(prog *cce.Program, cost *isa.CostModel, budget int) (*cce.Program, int, *depgraph.BudgetError) {
	n := len(prog.Instrs)
	if n < 2 || n > rescheduleMaxInstrs {
		return nil, 0, nil
	}
	for _, in := range prog.Instrs {
		switch in.(type) {
		case *isa.SetFlagInstr, *isa.WaitFlagInstr, *isa.BarrierInstr:
			return nil, 0, nil
		}
	}
	preds, err := depgraph.Conflicts(prog, budget)
	if err != nil {
		var berr *depgraph.BudgetError
		if errors.As(err, &berr) {
			return nil, 0, berr
		}
		return nil, 0, nil
	}
	succs := make([][]int32, n)
	indeg := make([]int, n)
	for j, ps := range preds {
		indeg[j] = len(ps)
		for _, i := range ps {
			succs[i] = append(succs[i], int32(j))
		}
	}
	// Longest path from each instruction to the exit, in cycles: the
	// classic critical-path priority. Conflict edges only point forward in
	// program order, so a reverse sweep is a reverse-topological order.
	prio := make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		var tail int64
		for _, j := range succs[i] {
			if prio[j] > tail {
				tail = prio[j]
			}
		}
		prio[i] = prog.Instrs[i].Cycles(cost) + tail
	}

	// ready holds issueable instructions ordered by (priority desc, index
	// asc); each step probes the top rescheduleWindow candidates on the
	// scoreboard and issues the one that can start earliest.
	less := func(a, b int32) bool {
		if prio[a] != prio[b] {
			return prio[a] > prio[b]
		}
		return a < b
	}
	var ready []int32
	insert := func(i int32) {
		at := sort.Search(len(ready), func(k int) bool { return less(i, ready[k]) })
		ready = append(ready, 0)
		copy(ready[at+1:], ready[at:])
		ready[at] = i
	}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			insert(int32(i))
		}
	}

	board := aicore.NewBoard(cost)
	order := make([]int, 0, n)
	moved := 0
	for len(ready) > 0 {
		window := len(ready)
		if window > rescheduleWindow {
			window = rescheduleWindow
		}
		best, bestStart := 0, int64(-1)
		for k := 0; k < window; k++ {
			start := board.StartOf(prog.Instrs[ready[k]])
			if bestStart < 0 || start < bestStart {
				best, bestStart = k, start
			}
		}
		pick := ready[best]
		copy(ready[best:], ready[best+1:])
		ready = ready[:len(ready)-1]
		board.Place(prog.Instrs[pick], int(pick))
		if int(pick) != len(order) {
			moved++
		}
		order = append(order, int(pick))
		for _, j := range succs[pick] {
			if indeg[j]--; indeg[j] == 0 {
				insert(j)
			}
		}
	}
	if moved == 0 || board.Cycles() >= aicore.Time(prog, cost, false).Cycles {
		return nil, 0, nil
	}
	out := derived(prog)
	out.Instrs = make([]isa.Instr, n)
	for k, i := range order {
		out.Instrs[k] = prog.Instrs[i]
	}
	return out, moved, nil
}
