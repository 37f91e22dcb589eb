package ops

import (
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/isa"
	"davinci/internal/lint"
	"davinci/internal/lint/perf"
)

// TestColdPlanAllocs gates the allocations of what a cold plan runs on the
// standard lowering's two largest forward programs at 147x147 k3s2 (16,019
// and 32,099 instructions): implicit-mode lint, the static perf analysis,
// the timing walk and a strict compile. Instruction regions are values and
// the planner lays out buffers without backing memory, so none of them
// allocates per instruction; the bounds are about twice what they make.
// Allocation counts do not depend on host speed, so the gate is tight.
func TestColdPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	p := isa.ConvParams{Ih: 147, Iw: 147, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	for _, c := range []struct {
		kernel                          string
		instrs                          int
		lint, perf, time, strictCompile float64
	}{
		{"maxpool_fwd/standard", 16019, 12, 12, 6000, 64000},
		{"maxpool_fwd_argmax/standard", 32099, 12, 12, 12000, 128000},
	} {
		spec := Spec{Strict: true}
		pl, err := Compile(c.kernel, spec, Dims{P: p})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(pl.Prog.Instrs); n != c.instrs {
			t.Fatalf("%s: %d instructions, want %d", c.kernel, n, c.instrs)
		}
		caps := spec.Buffers.Capacities()
		for _, g := range []struct {
			name  string
			bound float64
			run   func()
		}{
			{"lint.CheckWith", c.lint, func() {
				lint.CheckWith(lint.Options{Caps: caps, Mode: lint.SyncImplicit}, pl.Prog)
			}},
			{"perf.Analyze", c.perf, func() { perf.Analyze(pl.Prog, perf.Options{Caps: caps}) }},
			{"aicore.Time", c.time, func() { aicore.Time(pl.Prog, nil, false) }},
			{"strict Compile", c.strictCompile, func() {
				if _, err := Compile(c.kernel, spec, Dims{P: p}); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			got := testing.AllocsPerRun(2, g.run)
			t.Logf("%s %s: %.0f allocs", c.kernel, g.name, got)
			if got > g.bound {
				t.Errorf("%s %s: %.0f allocs, want <= %.0f", c.kernel, g.name, got, g.bound)
			}
		}
	}
}
