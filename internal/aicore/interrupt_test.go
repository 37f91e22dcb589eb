package aicore

import (
	"errors"
	"testing"

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
