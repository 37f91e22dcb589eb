package faults

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/obs"
)

// TestDecideDeterminism: the fault schedule is a pure function of the
// configuration — two injectors with the same seed agree on every
// (tile, attempt), and a different seed produces a different schedule.
func TestDecideDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Rate: 0.3, MaxPerTile: 2}
	a := New(cfg, nil)
	b := New(cfg, nil)
	other := New(Config{Seed: 43, Rate: 0.3, MaxPerTile: 2}, nil)
	fired, differs := 0, false
	for n := 0; n < 16; n++ {
		for c1 := 0; c1 < 8; c1++ {
			for attempt := 1; attempt <= 2; attempt++ {
				tile := Tile{N: n, C1: c1}
				fa, fb := a.Decide(tile, attempt), b.Decide(tile, attempt)
				if fa != fb {
					t.Fatalf("tile %v attempt %d: %v vs %v from identical configs", tile, attempt, fa, fb)
				}
				if fa.Kind != KindNone {
					fired++
				}
				if fa != other.Decide(tile, attempt) {
					differs = true
				}
			}
		}
	}
	if fired == 0 {
		t.Fatal("rate 0.3 over 256 decisions injected nothing")
	}
	if !differs {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
}

func TestDecideMaxPerTile(t *testing.T) {
	// Rate 1: every eligible attempt faults; MaxPerTile bounds eligibility.
	inj := New(Config{Seed: 7, Rate: 1, MaxPerTile: 2}, nil)
	tile := Tile{N: 3, C1: 1}
	for attempt := 1; attempt <= 2; attempt++ {
		if f := inj.Decide(tile, attempt); f.Kind == KindNone {
			t.Fatalf("attempt %d: rate-1 decision did not fault", attempt)
		}
	}
	if f := inj.Decide(tile, 3); f.Kind != KindNone {
		t.Fatalf("attempt 3 faulted (%v) beyond MaxPerTile=2", f.Kind)
	}
}

func TestParseKinds(t *testing.T) {
	kinds, err := ParseKinds("transient, stuckpipe")
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 2 || kinds[0] != KindTransient || kinds[1] != KindStuckPipe {
		t.Fatalf("got %v", kinds)
	}
	if _, err := ParseKinds("meteor"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// addProgram builds a two-pipe program (GM->UB copy, vector add, UB->GM
// copy) whose AutoSync form carries droppable set_flags.
func addProgram(t *testing.T, core *aicore.Core, n int) (*cce.Program, int) {
	t.Helper()
	gmIn := core.Mem.Space(isa.GM).MustAlloc(2 * n * fp16.Bytes)
	gmOut := core.Mem.Space(isa.GM).MustAlloc(n * fp16.Bytes)
	ubA := core.Mem.Space(isa.UB).MustAlloc(n * fp16.Bytes)
	ubB := core.Mem.Space(isa.UB).MustAlloc(n * fp16.Bytes)
	ubD := core.Mem.Space(isa.UB).MustAlloc(n * fp16.Bytes)
	p := cce.New("chaos-add")
	p.EmitCopy(isa.GM, gmIn, isa.UB, ubA, n)
	p.EmitCopy(isa.GM, gmIn+n*fp16.Bytes, isa.UB, ubB, n)
	p.EmitElementwise(isa.VAdd, isa.UB, ubD, ubA, ubB, n)
	p.EmitCopy(isa.UB, ubD, isa.GM, gmOut, n)
	return p, gmOut
}

// fire runs Fire for f on a fresh traced core holding addProgram's
// program, in a goroutine, and returns the core, the program and the
// channel Fire's error arrives on. The core's Cancel never closes, so a
// fault that waited on it would never return.
func fire(t *testing.T, inj *Injector, f Fault) (*aicore.Core, *cce.Program, chan error) {
	t.Helper()
	core := aicore.New(buffer.Config{}, nil)
	core.Trace = &aicore.Trace{}
	core.Cancel = make(chan struct{})
	p, _ := addProgram(t, core, 64)
	done := make(chan error, 1)
	go func() { done <- inj.Fire(core, p, f) }()
	return core, p, done
}

// wait returns Fire's error, failing if it takes over a second.
func wait(t *testing.T, done chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Second):
		t.Fatal("Fire never returned")
		return nil
	}
}

// TestFireTransient: a transient fault fails at instruction r mod
// len(prog), named the way a failed run names it, counts once and
// executes nothing.
func TestFireTransient(t *testing.T) {
	inj := New(Config{Seed: 1, Rate: 1}, obs.NewRegistry())
	core, p, done := fire(t, inj, Fault{Kind: KindTransient, r: 12345})
	err := wait(t, done)
	target := 12345 % len(p.Instrs)
	var te *TransientError
	if !errors.As(err, &te) || te.Instr != target {
		t.Fatalf("err = %v, want a TransientError at instr %d", err, target)
	}
	prefix := fmt.Sprintf("aicore: %s instr %d (%s): ", p.Name, target, p.Instrs[target])
	if !strings.HasPrefix(err.Error(), prefix) {
		t.Errorf("error %q does not start with %q", err, prefix)
	}
	if got := inj.Injected(KindTransient); got != 1 {
		t.Fatalf("faults_injected{transient} = %d, want 1", got)
	}
	for id := isa.BufID(0); id < isa.NumBufs; id++ {
		if bytes.Count(core.Mem.Mem(id), []byte{0}) != len(core.Mem.Mem(id)) {
			t.Errorf("%v written by a faulted attempt", id)
		}
	}
	if len(core.Trace.Entries) != 0 {
		t.Errorf("transient fault traced %d entries", len(core.Trace.Entries))
	}
}

// TestFireBitFlipCorruptsUB: the reported bit is really flipped in the
// core's Unified Buffer.
func TestFireBitFlipCorruptsUB(t *testing.T) {
	inj := New(Config{Seed: 2, Rate: 1}, obs.NewRegistry())
	core, _, done := fire(t, inj, Fault{Kind: KindBitFlip, r: 99999})
	err := wait(t, done)
	var ee *ECCError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want ECCError", err)
	}
	mem := core.Mem.Mem(isa.UB)
	if ee.Buf != isa.UB || ee.Offset < 0 || ee.Offset >= len(mem) {
		t.Fatalf("flip at %v byte %d, outside UB's %d bytes", ee.Buf, ee.Offset, len(mem))
	}
	if mem[ee.Offset] != 1<<ee.Bit || bytes.Count(mem, []byte{0}) != len(mem)-1 {
		t.Fatalf("UB byte %d holds %#x, want only bit %d flipped", ee.Offset, mem[ee.Offset], ee.Bit)
	}
	if got := inj.Injected(KindBitFlip); got != 1 {
		t.Fatalf("faults_injected{bitflip} = %d, want 1", got)
	}
}

// TestFireStuckPipe: a stuck pipe returns its hang at once, on a core
// whose Cancel never closes, naming the wedged instruction and its pipe;
// the traced core holds the schedule of the instructions before it, as a
// run of that prefix records it.
func TestFireStuckPipe(t *testing.T) {
	inj := New(Config{Seed: 3, Rate: 1}, obs.NewRegistry())
	core, p, done := fire(t, inj, Fault{Kind: KindStuckPipe, r: 778})
	err := wait(t, done)
	target := 778 % len(p.Instrs)
	var se *StuckPipeError
	if !errors.As(err, &se) || se.Instr != target || se.Pipe != p.Instrs[target].Pipe() {
		t.Fatalf("err = %v, want a StuckPipeError at instr %d on %v", err, target, p.Instrs[target].Pipe())
	}
	if got := inj.Injected(KindStuckPipe); got != 1 {
		t.Fatalf("faults_injected{stuckpipe} = %d, want 1", got)
	}
	prefix := cce.New(p.Name)
	for _, in := range p.Instrs[:target] {
		prefix.Emit(in)
	}
	ref := aicore.New(buffer.Config{}, nil)
	ref.Trace = &aicore.Trace{}
	if _, err := ref.Run(prefix); err != nil {
		t.Fatal(err)
	}
	if target == 0 || !slices.Equal(core.Trace.Entries, ref.Trace.Entries) {
		t.Errorf("trace %v, want the %d entries before instr %d: %v", core.Trace.Entries, target, target, ref.Trace.Entries)
	}
}

// TestFireDroppedFlagDeadlocks: a dropped set_flag starves its wait_flag;
// Fire returns the typed deadlock at once, on a core whose Cancel never
// closes, with the explicit schedule up to it on the core's trace.
func TestFireDroppedFlagDeadlocks(t *testing.T) {
	inj := New(Config{Seed: 4, Rate: 1}, obs.NewRegistry())
	core, _, done := fire(t, inj, Fault{Kind: KindDroppedFlag, r: 5})
	err := wait(t, done)
	var dl *aicore.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if !dl.HasFlag {
		t.Fatalf("deadlock %v does not name the unsatisfied flag", dl)
	}
	if got := inj.Injected(KindDroppedFlag); got != 1 {
		t.Fatalf("faults_injected{droppedflag} = %d, want 1", got)
	}
	starved := func(e aicore.TraceEntry) bool { return e.Idx == dl.Instr }
	if len(core.Trace.Entries) == 0 || slices.ContainsFunc(core.Trace.Entries, starved) {
		t.Errorf("trace %v, want the schedule up to the starved wait at instr %d", core.Trace.Entries, dl.Instr)
	}
}

// TestFireNothingToAct: KindNone, and a dropped flag in a single-pipe
// program, whose AutoSync form has no set_flag, fire nothing: Fire
// returns nil at once, counts nothing and leaves the core untouched.
func TestFireNothingToAct(t *testing.T) {
	inj := New(Config{Seed: 5, Rate: 1}, obs.NewRegistry())
	single := cce.New("vector-only")
	single.EmitVec(isa.VDup, isa.Contig(isa.UB, 0), isa.Operand{}, isa.Operand{}, fp16.One, isa.FullMask(), 1)
	single.EmitVec(isa.VAdds, isa.Contig(isa.UB, 256), isa.Contig(isa.UB, 0), isa.Operand{}, fp16.One, isa.FullMask(), 1)
	for _, f := range []Fault{{}, {Kind: KindDroppedFlag, r: 5}} {
		core := aicore.New(buffer.Config{}, nil)
		core.Trace = &aicore.Trace{}
		core.Cancel = make(chan struct{}) // never closed: a hang would block the test
		if err := inj.Fire(core, single, f); err != nil {
			t.Errorf("%v: Fire = %v, want nil", f.Kind, err)
		}
		if len(core.Trace.Entries) != 0 {
			t.Errorf("%v: %d trace entries recorded", f.Kind, len(core.Trace.Entries))
		}
	}
	for _, k := range AllKinds() {
		if got := inj.Injected(k); got != 0 {
			t.Errorf("faults_injected{%v} = %d, want 0", k, got)
		}
	}
}

func TestIsInjected(t *testing.T) {
	cases := []struct {
		err  error
		kind Kind
		ok   bool
	}{
		{&TransientError{Instr: 3}, KindTransient, true},
		{&ECCError{Buf: isa.UB}, KindBitFlip, true},
		{&StuckPipeError{Pipe: isa.PipeVector}, KindStuckPipe, true},
		{errors.New("compile error"), KindNone, false},
	}
	for _, c := range cases {
		kind, ok := IsInjected(c.err)
		if kind != c.kind || ok != c.ok {
			t.Errorf("IsInjected(%v) = %v, %v; want %v, %v", c.err, kind, ok, c.kind, c.ok)
		}
	}
}
