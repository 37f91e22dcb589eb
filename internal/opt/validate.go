package opt

import (
	"bytes"
	"fmt"

	"davinci/internal/aicore"
	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/lint"
	"davinci/internal/lint/perf"
)

// Validate is the translation-validation gate: it re-proves, per program,
// that optimized is a safe replacement for base, and returns the reason
// it is not ("" when it is). The checks, in order:
//
//  1. optimized passes cce.Program validation and lints clean under
//     implicit-sync semantics against the target buffer capacities —
//     the same gate a strict core applies before running anything;
//  2. the static critical-path upper bound (perf.Analyze) did not
//     increase: the optimized program's worst case is no worse;
//  3. the scheduled makespan (aicore.Time, the exact cycles Run
//     reports) did not increase;
//  4. both programs, executed functionally (their flattened traces, the
//     engine every plan runs on) from identical deterministic buffer
//     contents, leave bit-identical global memory. Global memory
//     is the only state a plan observes after a run (locals are scratch
//     and legitimately diverge once dead writes are gone), so GM
//     equality on a full-entropy input is the behavioral contract.
//
// The rewrites are designed to be bit-exact by construction; Validate
// exists so a bug in a pass surfaces as a rejected optimization instead
// of a wrong answer.
func Validate(base, optimized *cce.Program, opts Options) string {
	if err := optimized.Validate(); err != nil {
		return fmt.Sprintf("optimized program invalid: %v", err)
	}
	cfg := opts.Buffers.Normalized()
	caps := cfg.Capacities()
	diags := lint.CheckWith(lint.Options{Caps: caps, Mode: lint.SyncImplicit}, optimized)
	if errs := lint.Errors(diags); len(errs) > 0 {
		return fmt.Sprintf("optimized program not lint-clean: %d error(s), first: %s", len(errs), errs[0])
	}
	cost := opts.Cost
	if cost == nil {
		cost = isa.DefaultCostModel()
	}
	popts := perf.Options{Cost: cost, Caps: caps}
	baseCP := perf.Analyze(base, popts).CritPath
	optCP := perf.Analyze(optimized, popts).CritPath
	if optCP > baseCP {
		return fmt.Sprintf("critical-path bound regressed: %d -> %d cycles", baseCP, optCP)
	}
	baseT := aicore.Time(base, cost, false).Cycles
	optT := aicore.Time(optimized, cost, false).Cycles
	if optT > baseT {
		return fmt.Sprintf("scheduled makespan regressed: %d -> %d cycles", baseT, optT)
	}
	return equivalent(base, optimized, opts)
}

// equivalent executes the flattened traces of base and optimized on two
// identically seeded cores and compares global memory byte for byte.
func equivalent(base, optimized *cce.Program, opts Options) string {
	var foot [isa.NumBufs]int
	grow := func(prog *cce.Program) {
		for _, in := range prog.Instrs {
			for _, rs := range [2]isa.Regions{in.Reads(), in.Writes()} {
				for k := range rs.Len() {
					if r := rs.At(k); r.End > foot[r.Buf] {
						foot[r.Buf] = r.End
					}
				}
			}
		}
	}
	grow(base)
	grow(optimized)

	cfg := opts.Buffers.Normalized()
	coreA := aicore.New(cfg, opts.Cost)
	coreB := aicore.New(cfg, opts.Cost)
	for _, core := range []*aicore.Core{coreA, coreB} {
		for id := isa.BufID(0); id < isa.NumBufs; id++ {
			sp := core.Mem.Space(id)
			if id == isa.GM {
				// GM grows on demand; reserve the joint footprint so both
				// cores address identical bytes.
				if foot[id] > 0 {
					if _, err := sp.Alloc(foot[id]); err != nil {
						return fmt.Sprintf("cannot seed %v: %v", id, err)
					}
				}
			}
			// Full-entropy fill of the whole space: every byte either
			// program could read is pinned, and untouched bytes must come
			// back unchanged.
			fillDeterministic(sp.Data(), 0x9e3779b9_0000_0000+uint64(id))
		}
	}
	if err := coreA.ExecFlat(aicore.Flatten(base)); err != nil {
		return fmt.Sprintf("baseline replay failed: %v", err)
	}
	if err := coreB.ExecFlat(aicore.Flatten(optimized)); err != nil {
		return fmt.Sprintf("optimized replay failed: %v", err)
	}
	a := coreA.Mem.Space(isa.GM).Data()
	b := coreB.Mem.Space(isa.GM).Data()
	if len(a) != len(b) {
		return fmt.Sprintf("global memory size diverged: %d vs %d bytes", len(a), len(b))
	}
	if !bytes.Equal(a, b) {
		at := 0
		for at < len(a) && a[at] == b[at] {
			at++
		}
		return fmt.Sprintf("global memory diverged at byte %d: %#02x vs %#02x", at, a[at], b[at])
	}
	return ""
}

// fillDeterministic fills data with a splitmix64 keystream seeded per
// buffer: reproducible, full-entropy contents with no RNG dependency.
func fillDeterministic(data []byte, seed uint64) {
	for i := 0; i < len(data); i += 8 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		for k := 0; k < 8 && i+k < len(data); k++ {
			data[i+k] = byte(z >> (8 * k))
		}
	}
}
