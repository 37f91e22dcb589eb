package ops

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/tensor"
)

func replayPlan(t *testing.T) (*Plan, []*tensor.Tensor) {
	t.Helper()
	p := isa.ConvParams{Ih: 35, Iw: 35, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	pl, err := PlanMaxPoolForward("im2col", Spec{}, p)
	if err != nil {
		t.Fatal(err)
	}
	return pl, []*tensor.Tensor{randTile(3, p)}
}

// TestFirstReplaySingleflight: eight goroutines replaying a fresh plan at
// once run the timing scoreboard exactly once; the rest wait for its
// memo and take the flattened path, with identical outputs and Stats. An
// earlier replay with an OnInstr hook armed interprets on its own: it
// neither leads nor publishes the memo.
func TestFirstReplaySingleflight(t *testing.T) {
	pl, in := replayPlan(t)
	hooked := newTestCore()
	hooked.OnInstr = func(int, isa.Instr) error { return nil }
	if _, _, err := pl.Run(hooked, in...); err != nil {
		t.Fatal(err)
	}
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
	for g := range errs {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if *stats[g] != *stats[0] {
			t.Errorf("goroutine %d: stats %v, want %v", g, stats[g], stats[0])
		}
		if !bytes.Equal(outs[g][0].Data, outs[0][0].Data) {
			t.Errorf("goroutine %d: output differs", g)
		}
	}
	if n := pl.scheduled.Load(); n != 1 {
		t.Errorf("%d scoreboard replays, want 1", n)
	}
}

// TestFirstReplayLeaderFailure: a first replay that fails — interrupted
// or panicking — withdraws its flight, so a replay waiting on it runs
// the scoreboard itself instead of waiting forever; and a waiting replay
// still honours its own core's Cancel.
func TestFirstReplayLeaderFailure(t *testing.T) {
	ref, in := replayPlan(t)
	want, wantSt, err := ref.Run(newTestCore(), in...)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fail func(leader *aicore.Core, cancel chan struct{})
	}{
		{"interrupted", func(_ *aicore.Core, cancel chan struct{}) { close(cancel) }},
		{"panic", func(leader *aicore.Core, _ chan struct{}) {
			next := leader.OnProgram
			leader.OnProgram = func(p *cce.Program) { next(p); panic("leader panics") }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, _ := replayPlan(t)
			leader, cancel := newTestCore(), make(chan struct{})
			leader.Cancel = cancel
			entered, release := make(chan struct{}), make(chan struct{})
			leader.OnProgram = func(*cce.Program) { close(entered); <-release }
			tc.fail(leader, cancel)
			leaderDone := make(chan error)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						leaderDone <- errors.New("panicked")
					}
				}()
				_, _, err := pl.Run(leader, in...)
				leaderDone <- err
			}()
			<-entered

			// A waiter whose core is cancelled gives up without the leader.
			quitter := newTestCore()
			gone := make(chan struct{})
			close(gone)
			quitter.Cancel = gone
			if _, _, err := pl.Run(quitter, in...); !errors.Is(err, aicore.ErrInterrupted) {
				t.Fatalf("cancelled waiter: err = %v, want ErrInterrupted", err)
			}

			waiterDone := make(chan error)
			var got []*tensor.Tensor
			var st *aicore.Stats
			go func() {
				var err error
				got, st, err = pl.Run(newTestCore(), in...)
				waiterDone <- err
			}()
			close(release)
			if err := <-leaderDone; err == nil {
				t.Fatal("leader succeeded, want a failure")
			}
			if err := <-waiterDone; err != nil {
				t.Fatalf("waiter: %v", err)
			}
			if *st != *wantSt || !bytes.Equal(got[0].Data, want[0].Data) {
				t.Error("waiter's replay differs from a clean one")
			}
			if n := pl.scheduled.Load(); n != 2 {
				t.Errorf("%d scoreboard replays, want 2 (the failed leader's and the waiter's)", n)
			}
		})
	}
}
