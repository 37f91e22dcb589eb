package chip

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"davinci/internal/aicore"
	"davinci/internal/faults"
	"davinci/internal/isa"
	"davinci/internal/ref"
	"davinci/internal/trace"
)

// cancelLayer is a small shape (12x12x64: 4 C1 tiles) so the mid-tile
// cancellation sweep stays fast under -race.
func cancelLayer() (isa.ConvParams, int) {
	return isa.ConvParams{Ih: 12, Iw: 12, Kh: 3, Kw: 3, Sh: 2, Sw: 2}, 4
}

// cancelAfterSpans cancels ctx once the tracer has finished k tile_exec
// spans (k = 0 cancels immediately). The returned stop func ends the
// watcher; call it after the run returns.
func cancelAfterSpans(tr *trace.Tracer, k int, cancel context.CancelFunc) (stop func()) {
	done := make(chan struct{})
	go func() {
		for tr.Count("tile_exec") < k {
			select {
			case <-done:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
		cancel()
	}()
	return func() { close(done) }
}

// policies covers the two default sets the executor resolves: the zero
// Resilience (one attempt, no attempt tracing) and Enabled (retries,
// hang reports with a trace tail).
var policies = []struct {
	name string
	res  Resilience
}{
	{"zero", Resilience{}},
	{"enabled", Resilience{Enabled: true}},
}

// isAborted reports whether err is the one error of a run its caller
// cancelled: it must match both the context's error and the cores'
// interruption.
func isAborted(err error) bool {
	return errors.Is(err, context.Canceled) && errors.Is(err, aicore.ErrInterrupted)
}

// cancelMidTileSweep cancels after every possible number of finished
// tile spans: before the first tile, between every pair, and after the
// last. Whatever the interleaving, the run must return exactly once with
// either a complete bit-identical output or the abort error — and end
// every span it started.
func cancelMidTileSweep(t *testing.T, res Resilience) {
	p, c1 := cancelLayer()
	in := chaosInput(t, p, 1, c1)
	want := ref.MaxPoolForward(in, p)

	for k := 0; k <= c1+1; k++ {
		tr := trace.New()
		ctx, cancel := context.WithCancel(context.Background())
		stop := cancelAfterSpans(tr, k, cancel)
		c := New(Config{Cores: 2, Context: ctx, Trace: tr.Root(), Resilience: res})
		out, _, err := c.MaxPoolForward("im2col", in, p)
		stop()
		cancel()
		switch {
		case err == nil:
			if out == nil || !bytes.Equal(out.Data, want.Data) {
				t.Fatalf("k=%d: clean return with wrong output", k)
			}
		case isAborted(err):
			if out != nil {
				t.Fatalf("k=%d: error return carries an output", k)
			}
		default:
			t.Fatalf("k=%d: unexpected error %v", k, err)
		}
		if tr.Active() != 0 {
			t.Fatalf("k=%d: span leak, Active = %d", k, tr.Active())
		}
	}
}

func TestCancelMidTileLegacySweep(t *testing.T)    { cancelMidTileSweep(t, policies[0].res) }
func TestCancelMidTileResilientSweep(t *testing.T) { cancelMidTileSweep(t, policies[1].res) }

// contextCancel: with Config.Context cancelled before the run, the
// executor aborts instead of completing, reporting the abort once rather
// than per tile.
func contextCancel(t *testing.T, res Resilience) {
	p, c1 := chaosLayer()
	in := chaosInput(t, p, 1, c1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(Config{Cores: 2, Context: ctx, Resilience: res})
	_, _, err := c.MaxPoolForward("im2col", in, p)
	if err == nil {
		t.Fatal("cancelled context, yet the run completed")
	}
	if !isAborted(err) {
		t.Fatalf("err %v does not match both context.Canceled and aicore.ErrInterrupted", err)
	}
	if n := strings.Count(err.Error(), "run aborted"); n != 1 {
		t.Fatalf("err %v reports the abort %d times, want once", err, n)
	}
}

func TestContextCancelLegacy(t *testing.T)    { contextCancel(t, policies[0].res) }
func TestContextCancelResilient(t *testing.T) { contextCancel(t, policies[1].res) }

// countAttempt counts finished tile_exec spans carrying a given attempt
// index.
func countAttempt(tr *trace.Tracer, attempt int) int {
	n := 0
	for _, s := range tr.Finished() {
		if s.Name != "tile_exec" {
			continue
		}
		if a, ok := s.Attr("attempt"); ok && a == strconv.Itoa(attempt) {
			n++
		}
	}
	return n
}

// TestCancelAtEveryAttemptIndex forces retries (injector rate 1, faults
// on attempts 1 and 2, success on 3) and cancels while an attempt with
// index j is the newest finished span, for every attempt index the
// budget allows. The executor must report exactly one terminal
// outcome and end every span regardless of which retry wave the
// cancellation lands in.
func TestCancelAtEveryAttemptIndex(t *testing.T) {
	p, c1 := cancelLayer()
	in := chaosInput(t, p, 1, c1)
	want := ref.MaxPoolForward(in, p)

	for attempt := 1; attempt <= 3; attempt++ {
		tr := trace.New()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			for countAttempt(tr, attempt) == 0 {
				select {
				case <-done:
					return
				case <-time.After(200 * time.Microsecond):
				}
			}
			cancel()
		}()
		inj := faults.New(faults.Config{
			Seed:       5,
			Rate:       1,
			Kinds:      []faults.Kind{faults.KindTransient},
			MaxPerTile: 2,
		}, nil)
		c := New(Config{
			Cores:   2,
			Context: ctx,
			Trace:   tr.Root(),
			Resilience: Resilience{
				Enabled:       true,
				Injector:      inj,
				MaxAttempts:   3,
				CoreFailLimit: 100, // rate-1 injection must not fail the cores
			},
		})
		out, _, err := c.MaxPoolForward("im2col", in, p)
		close(done)
		cancel()
		switch {
		case err == nil:
			if out == nil || !bytes.Equal(out.Data, want.Data) {
				t.Fatalf("attempt=%d: clean return with wrong output", attempt)
			}
		case isAborted(err):
			if out != nil {
				t.Fatalf("attempt=%d: error return carries an output", attempt)
			}
		default:
			t.Fatalf("attempt=%d: unexpected error %v", attempt, err)
		}
		if tr.Active() != 0 {
			t.Fatalf("attempt=%d: span leak, Active = %d", attempt, tr.Active())
		}
	}
}
