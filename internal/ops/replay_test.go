package ops

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/isa"
	"davinci/internal/tensor"
)

func replayPlan(t *testing.T) (*Plan, []*tensor.Tensor) {
	t.Helper()
	p := isa.ConvParams{Ih: 35, Iw: 35, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	pl, err := Compile("maxpool_fwd/im2col", Spec{}, Dims{P: p})
	if err != nil {
		t.Fatal(err)
	}
	return pl, []*tensor.Tensor{randTile(3, p)}
}

// TestConcurrentFirstRuns: eight goroutines running a fresh plan at once
// (run under -race) all flatten and time it through the plan's shared
// memos, and return identical outputs and Stats, equal to those of a
// later sequential run on a fresh core.
func TestConcurrentFirstRuns(t *testing.T) {
	pl, in := replayPlan(t)
	const goroutines = 8
	outs := make([][]*tensor.Tensor, goroutines)
	stats := make([]*aicore.Stats, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			core := newTestCore()
			<-start
			outs[g], stats[g], errs[g] = pl.Run(core, in...)
		}(g)
	}
	close(start)
	wg.Wait()
	want, wantSt, err := pl.Run(newTestCore(), in...)
	if err != nil {
		t.Fatal(err)
	}
	for g := range errs {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if *stats[g] != *wantSt {
			t.Errorf("goroutine %d: stats %v, want %v", g, stats[g], wantSt)
		}
		if !bytes.Equal(outs[g][0].Data, want[0].Data) {
			t.Errorf("goroutine %d: output differs from the sequential run's", g)
		}
	}
}

// TestRunOnCancelledCore: a Run on a core whose Cancel channel is already
// closed returns ErrInterrupted, on a fresh plan and on one already run.
func TestRunOnCancelledCore(t *testing.T) {
	pl, in := replayPlan(t)
	gone := make(chan struct{})
	close(gone)
	for _, run := range []string{"first", "second"} {
		core := newTestCore()
		core.Cancel = gone
		if _, _, err := pl.Run(core, in...); !errors.Is(err, aicore.ErrInterrupted) {
			t.Errorf("%s run: err = %v, want ErrInterrupted", run, err)
		}
		if _, _, err := pl.Run(newTestCore(), in...); err != nil {
			t.Fatal(err)
		}
	}
}
