package aicore

import (
	"errors"
	"testing"
	"time"

	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/isa"
)

// TestRunInterrupted: a closed Cancel channel stops a run between
// instructions with a typed ErrInterrupted naming the program and index.
func TestRunInterrupted(t *testing.T) {
	c := New(buffer.Config{}, nil)
	p, _, _ := buildChain(c)
	cancel := make(chan struct{})
	close(cancel)
	c.Cancel = cancel
	_, err := c.Run(p)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}

// TestOnInstrAborts: an OnInstr hook error aborts the run at exactly the
// chosen instruction, with the hook error preserved in the chain.
func TestOnInstrAborts(t *testing.T) {
	c := New(buffer.Config{}, nil)
	p, _, _ := buildChain(c)
	sentinel := errors.New("injected")
	seen := -1
	c.OnInstr = func(idx int, in isa.Instr) error {
		if idx == 1 {
			seen = idx
			return sentinel
		}
		return nil
	}
	_, err := c.Run(p)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the hook's sentinel", err)
	}
	if seen != 1 {
		t.Fatalf("hook fired at %d, want 1", seen)
	}
}

// TestDeadlockErrorTyped: a starved wait_flag surfaces as *DeadlockError
// identifying the blocked pipe and the unsatisfied flag.
func TestDeadlockErrorTyped(t *testing.T) {
	c := New(buffer.Config{}, nil)
	p := cce.New("starved")
	p.Emit(&isa.WaitFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 3})
	_, err := c.RunExplicit(p)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if !dl.HasFlag {
		t.Fatal("deadlock does not identify the wait_flag")
	}
	if dl.Pipe != isa.PipeVector || dl.Flag != [3]int{int(isa.PipeMTE2), int(isa.PipeVector), 3} {
		t.Fatalf("deadlock names pipe %v flag %v", dl.Pipe, dl.Flag)
	}
}

// TestHangOnDeadlock: with HangOnDeadlock set, a deadlocked program
// blocks (as spinning hardware would) until Cancel fires, then surfaces
// the same typed diagnosis.
func TestHangOnDeadlock(t *testing.T) {
	c := New(buffer.Config{}, nil)
	cancel := make(chan struct{})
	c.Cancel = cancel
	c.HangOnDeadlock = true
	p := cce.New("hang")
	p.Emit(&isa.WaitFlagInstr{SrcPipe: isa.PipeMTE2, DstPipe: isa.PipeVector, Event: 0})
	done := make(chan error, 1)
	go func() {
		_, err := c.RunExplicit(p)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("hang returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(cancel)
	select {
	case err := <-done:
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("err = %v, want *DeadlockError", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled hang never returned")
	}
}

// TestExecFlatInterrupted: the flattened replay path polls Cancel too, so
// plan runs stay abortable.
func TestExecFlatInterrupted(t *testing.T) {
	c := New(buffer.Config{}, nil)
	p, _, _ := buildChain(c)
	flat := Flatten(p)
	cancel := make(chan struct{})
	close(cancel)
	c.Cancel = cancel
	if err := c.ExecFlat(flat); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}
