package aicore

import (
	"strings"
	"testing"

	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/isa"
)

// TestStrictRejectsMissingFlags: under explicit semantics, strict mode
// turns the missing-flag race into a deterministic pre-execution error,
// instead of depending on the dynamic schedule to expose it.
func TestStrictRejectsMissingFlags(t *testing.T) {
	c := New(buffer.Config{}, nil)
	c.Strict = true
	p, _, _ := buildChain(c)
	_, err := c.RunExplicit(p)
	if err == nil || !strings.Contains(err.Error(), "strict lint") {
		t.Fatalf("strict RunExplicit = %v, want a strict lint error", err)
	}
}

// TestStrictAcceptsSyncedProgram: strict mode must not reject a correctly
// synchronized kernel in either execution mode.
func TestStrictAcceptsSyncedProgram(t *testing.T) {
	c := New(buffer.Config{}, nil)
	c.Strict = true
	p, _, _ := buildChain(c)
	if _, err := c.RunExplicit(cce.AutoSync(p)); err != nil {
		t.Fatalf("strict RunExplicit rejected a synced chain: %v", err)
	}
	c2 := New(buffer.Config{}, nil)
	c2.Strict = true
	p2, _, _ := buildChain(c2)
	if _, err := c2.Run(p2); err != nil {
		t.Fatalf("strict Run rejected the raw chain: %v", err)
	}
}

// TestStrictRejectsOutOfBounds: an operand past the UB capacity is a
// bounds error in strict mode; without strict mode the simulator's own
// slice bounds would panic deep in execution instead.
func TestStrictRejectsOutOfBounds(t *testing.T) {
	c := New(buffer.Config{UBSize: 4096}, nil)
	c.Strict = true
	p := cce.New("oob")
	p.EmitCopy(isa.GM, 0, isa.UB, 4096-64, 256)
	_, err := c.Run(p)
	if err == nil || !strings.Contains(err.Error(), "strict lint") {
		t.Fatalf("strict Run = %v, want a strict lint error", err)
	}
}

// TestStrictUsesConfiguredCapacities: the same program is legal on a core
// with the default 256 KiB UB.
func TestStrictUsesConfiguredCapacities(t *testing.T) {
	c := New(buffer.Config{}, nil)
	c.Strict = true
	p := cce.New("fits")
	p.EmitCopy(isa.GM, 0, isa.UB, 4096-64, 256)
	p.EmitCopy(isa.UB, 4096-64, isa.GM, 4096, 256)
	if _, err := c.Run(p); err != nil {
		t.Fatalf("strict Run rejected an in-bounds program: %v", err)
	}
}
