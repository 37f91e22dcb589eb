package cce

import (
	"sort"

	"davinci/internal/isa"
)

// AutoSync returns a copy of prog with explicit set_flag / wait_flag
// instructions inserted wherever a cross-pipeline data dependency exists —
// the synchronization-insertion pass a DaVinci compiler (AKG) performs
// when lowering to CCE C, where pipelines are only ordered by explicit
// events. The result runs correctly under aicore.RunExplicit.
//
// Algorithm: scan instructions in program order, tracking the byte regions
// each one reads and writes. For every RAW/WAW/WAR dependency whose
// endpoints sit on different pipes, record an edge from the latest such
// producer per pipe. Edges a previous wait already orders transitively are
// pruned: once a consumer on pipe d waits for producer j on pipe q, every
// later instruction on d starts after that wait (in-order issue), and
// every producer at or before j on q completes before j does (in-order
// completion), so any (q, d) edge with producer <= j needs no flag. The
// stream is then rebuilt with a set_flag directly after each producer and
// the matching wait_flag directly before the consumer, events allocated
// round-robin per ordered pipe pair. Pruning leaves the surviving (q, d)
// edges strictly increasing in both producer and consumer, so the sets and
// waits of any one (q, d, event) channel appear in the same relative
// order on their two in-order pipes and counting-token semantics pair the
// i-th wait with the i-th set even when event ids wrap. (Without pruning,
// two edges sharing a reused event id can cross — a later consumer
// depending on an earlier producer — making a wait consume the other
// edge's token and leaving its own dependency unordered.) Pipe barriers
// cut the analysis (they already order everything across them).
//
// The scan is quadratic in program length; it is intended for the
// kernel-sized programs this repository emits.
func AutoSync(prog *Program) *Program {
	type access struct {
		idx    int
		pipe   isa.Pipe
		region isa.Region
	}
	var writes, reads []access
	// edges[i] = producer indices instruction i must wait for.
	edges := make(map[int][]int)
	for idx, in := range prog.Instrs {
		if _, ok := in.(*isa.BarrierInstr); ok {
			writes, reads = nil, nil
			continue
		}
		pipe := in.Pipe()
		// Latest cross-pipe producer per producing pipe.
		latest := map[isa.Pipe]int{}
		scan := func(list []access, r isa.Region) {
			for _, a := range list {
				if a.pipe != pipe && a.region.Overlaps(r) {
					if cur, ok := latest[a.pipe]; !ok || a.idx > cur {
						latest[a.pipe] = a.idx
					}
				}
			}
		}
		inReads, inWrites := in.Reads(), in.Writes()
		for i := range inReads.Len() {
			scan(writes, inReads.At(i))
		}
		for i := range inWrites.Len() {
			w := inWrites.At(i)
			scan(writes, w)
			scan(reads, w)
		}
		for _, p := range latest {
			edges[idx] = append(edges[idx], p)
		}
		for i := range inReads.Len() {
			reads = append(reads, access{idx, pipe, inReads.At(i)})
		}
		for i := range inWrites.Len() {
			writes = append(writes, access{idx, pipe, inWrites.At(i)})
		}
	}

	// Transitive pruning, in consumer order. waited[q][d] holds 1 + the
	// latest producer index on pipe q that some earlier consumer on pipe d
	// has waited for; edges at or below it are already ordered. Processing
	// each consumer's producers in ascending order keeps the surviving
	// edges of a pipe pair strictly increasing on both sides.
	var waited [isa.NumPipes][isa.NumPipes]int
	for idx := range prog.Instrs {
		producers := edges[idx]
		if len(producers) == 0 {
			continue
		}
		sort.Ints(producers)
		d := prog.Instrs[idx].Pipe()
		kept := producers[:0]
		for _, j := range producers {
			q := prog.Instrs[j].Pipe()
			if j < waited[q][d] {
				continue
			}
			waited[q][d] = j + 1
			kept = append(kept, j)
		}
		if len(kept) == 0 {
			delete(edges, idx)
			continue
		}
		edges[idx] = kept
	}

	// Rebuild with flags. setsAfter[j] lists the consumers of producer j.
	setsAfter := make(map[int][]int)
	for idx := range prog.Instrs {
		for _, p := range edges[idx] {
			setsAfter[p] = append(setsAfter[p], idx)
		}
	}
	out := New(prog.Name + "+sync")
	eventCounter := map[[2]isa.Pipe]int{}
	// Event id assigned to each (producer, consumer) edge, in producer
	// program order so set/wait sequences agree.
	edgeEvent := map[[2]int]int{}
	for j := range prog.Instrs {
		for _, consumer := range setsAfter[j] {
			pair := [2]isa.Pipe{prog.Instrs[j].Pipe(), prog.Instrs[consumer].Pipe()}
			ev := eventCounter[pair] % isa.EventsPerPair
			eventCounter[pair]++
			edgeEvent[[2]int{j, consumer}] = ev
		}
	}
	for idx, in := range prog.Instrs {
		for _, p := range edges[idx] {
			out.Emit(&isa.WaitFlagInstr{
				SrcPipe: prog.Instrs[p].Pipe(),
				DstPipe: in.Pipe(),
				Event:   edgeEvent[[2]int{p, idx}],
			})
		}
		out.Emit(in)
		for _, consumer := range setsAfter[idx] {
			out.Emit(&isa.SetFlagInstr{
				SrcPipe: in.Pipe(),
				DstPipe: prog.Instrs[consumer].Pipe(),
				Event:   edgeEvent[[2]int{idx, consumer}],
			})
		}
	}
	return out
}
