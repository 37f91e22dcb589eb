package ops

import (
	"strings"
	"testing"

	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/isa"
)

// TestStrictSealRejectsLintErrors: sealing a plan under a strict Spec
// runs the concrete lint, so a program with an out-of-bounds access is
// refused with a "strict lint" error. The same program seals without
// Strict, which is what makes the strict check the only guard.
func TestStrictSealRejectsLintErrors(t *testing.T) {
	p := isa.ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	ubCap := buffer.Config{}.Capacities()[isa.UB]
	oob := func() *cce.Program {
		prog := cce.New("oob")
		prog.EmitCopy(isa.GM, 0, isa.UB, ubCap-64, 256)
		return prog
	}

	_, err := newPlanner("oob", Spec{Strict: true}, p).seal(oob(), Spec{Strict: true})
	if err == nil || !strings.Contains(err.Error(), "strict lint") {
		t.Fatalf("strict seal = %v, want a strict lint error", err)
	}
	if !strings.Contains(err.Error(), "bounds") {
		t.Errorf("strict seal error does not name the bounds pass: %v", err)
	}

	pl, err := newPlanner("oob", Spec{}, p).seal(oob(), Spec{})
	if err != nil {
		t.Fatalf("non-strict seal rejected the program: %v", err)
	}
	if pl.Prog == nil || len(pl.Prog.Instrs) != 1 {
		t.Fatalf("non-strict seal produced %v, want the one-instruction program", pl.Prog)
	}
}
