package chip

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/faults"
	"davinci/internal/isa"
)

var updateFaults = flag.Bool("update", false, "rewrite the fault-outcome golden file")

// faultGoldenLayer is a 17x17 k3s2 maxpool over four C1 tiles.
func faultGoldenLayer() isa.ConvParams {
	return isa.ConvParams{Ih: 17, Iw: 17, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
}

// resilienceCounters are the chip_* counters the executor books.
var resilienceCounters = []string{
	"chip_tile_retries", "chip_tile_requeues", "chip_tiles_degraded", "chip_tile_hangs",
	"chip_cores_failed", "chip_tile_panics", "chip_retry_backoff_cycles",
}

// writeCounters appends faults_injected{kind} and the resilience counters
// of c's registry.
func writeCounters(b *strings.Builder, c *Chip, inj *faults.Injector) {
	snap := c.Metrics().Snapshot()
	for _, k := range faults.AllKinds() {
		v, _ := snap.CounterValue("faults_injected", "kind", k.String())
		fmt.Fprintf(b, "faults_injected{kind=%v} %d (injector %d)\n", k, v, inj.Injected(k))
	}
	for _, name := range resilienceCounters {
		v, _ := snap.CounterValue(name)
		fmt.Fprintf(b, "%s %d\n", name, v)
	}
}

// writeTypedCause appends the typed fields of the injected fault or
// deadlock err wraps.
func writeTypedCause(b *strings.Builder, err error) {
	var te *faults.TransientError
	var ee *faults.ECCError
	var se *faults.StuckPipeError
	var dl *aicore.DeadlockError
	switch {
	case errors.As(err, &te):
		fmt.Fprintf(b, "cause: transient instr=%d\n", te.Instr)
	case errors.As(err, &ee):
		fmt.Fprintf(b, "cause: ecc buf=%v offset=%d bit=%d\n", ee.Buf, ee.Offset, ee.Bit)
	case errors.As(err, &se):
		fmt.Fprintf(b, "cause: stuckpipe pipe=%v instr=%d\n", se.Pipe, se.Instr)
	case errors.As(err, &dl):
		fmt.Fprintf(b, "cause: deadlock program=%s pipe=%v flag=%v hasflag=%v instr=%d\n",
			dl.Program, dl.Pipe, dl.Flag, dl.HasFlag, dl.Instr)
	default:
		fmt.Fprintf(b, "cause: untyped\n")
	}
}

// TestFaultOutcomesGolden pins what every fault kind does to a chip run:
// each kind alone at rate 1 and one mixed-kind seed, over a small layer
// with attempt tracing on. With one attempt per
// tile and degradation on, each tile's LastErr carries its attempt's
// error; with a retry allowed, every tile recovers; a one-tile run per
// kind without degradation surfaces the *TileError, its typed cause and
// its trace tail. Error texts, typed fields, trace tails and the
// faults_injected and chip_* counters must match the golden file.
// Regenerate with: go test ./internal/chip -run FaultOutcomesGolden -update
func TestFaultOutcomesGolden(t *testing.T) {
	p := faultGoldenLayer()
	clean, _, err := New(Config{Cores: 2}).MaxPoolForward("im2col", chaosInput(t, p, 1, 4), p)
	if err != nil {
		t.Fatal(err)
	}
	type scenario struct {
		name  string
		seed  int64
		kinds []faults.Kind
	}
	scenarios := []scenario{{"mixed", 17, nil}}
	for _, k := range faults.AllKinds() {
		scenarios = append(scenarios, scenario{k.String(), 5, []faults.Kind{k}})
	}
	var b strings.Builder
	for _, sc := range scenarios {
		// One attempt per tile, degraded to the golden model.
		inj := faults.New(faults.Config{Seed: sc.seed, Rate: 1, Kinds: sc.kinds, MaxPerTile: 1 << 30}, nil)
		c := New(Config{Cores: 2, Resilience: Resilience{
			Enabled: true, Injector: inj, MaxAttempts: 1, Degrade: true, TraceTail: 8,
		}})
		out, st, err := c.MaxPoolForward("im2col", chaosInput(t, p, 1, 4), p)
		if err != nil {
			t.Fatalf("%s degraded run: %v", sc.name, err)
		}
		fmt.Fprintf(&b, "== %s: one attempt, degraded (output equals clean: %v)\n", sc.name, bytes.Equal(out.Data, clean.Data))
		for _, d := range st.Degraded {
			fmt.Fprintf(&b, "tile (%d,%d) attempts=%d: %s\n", d.N, d.C1, d.Attempts, d.LastErr)
		}
		writeCounters(&b, c, inj)

		// A fault on the first attempt only; the retry runs clean.
		inj = faults.New(faults.Config{Seed: sc.seed, Rate: 1, Kinds: sc.kinds, MaxPerTile: 1}, nil)
		c = New(Config{Cores: 2, Resilience: Resilience{
			Enabled: true, Injector: inj, MaxAttempts: 2, TraceTail: 8, CoreFailLimit: 1 << 30,
		}})
		out, st, err = c.MaxPoolForward("im2col", chaosInput(t, p, 1, 4), p)
		if err != nil {
			t.Fatalf("%s retried run: %v", sc.name, err)
		}
		fmt.Fprintf(&b, "== %s: retried (output equals clean: %v, cycles %d, degraded %d)\n",
			sc.name, bytes.Equal(out.Data, clean.Data), st.Cycles, len(st.Degraded))
		writeCounters(&b, c, inj)
	}
	for _, k := range faults.AllKinds() {
		// Seed 22 wedges the stuck pipe deep enough for a full trace tail.
		inj := faults.New(faults.Config{Seed: 22, Rate: 1, Kinds: []faults.Kind{k}, MaxPerTile: 1 << 30}, nil)
		c := New(Config{Cores: 1, Resilience: Resilience{
			Enabled: true, Injector: inj, MaxAttempts: 1, TraceTail: 8,
		}})
		_, _, err := c.MaxPoolForward("im2col", chaosInput(t, p, 1, 1), p)
		fmt.Fprintf(&b, "== %v: one tile, not degraded\nerror: %v\n", k, err)
		var te *TileError
		if !errors.As(err, &te) {
			t.Fatalf("%v: err %v carries no *TileError", k, err)
		}
		fmt.Fprintf(&b, "tile error: kind=%v tile=(%d,%d) core=%d attempt=%d pipe=%v flag=%v hasflag=%v\n",
			te.Kind, te.N, te.C1, te.Core, te.Attempt, te.Pipe, te.Flag, te.HasFlag)
		writeTypedCause(&b, te.Cause)
		fmt.Fprintf(&b, "trace tail (%d entries):\n", len(te.TraceTail))
		for _, e := range te.TraceTail {
			fmt.Fprintf(&b, "  %d %v [%d,%d) kind=%d flag=%v stall=%+v %s\n",
				e.Idx, e.Pipe, e.Start, e.End, e.Kind, e.Flag, e.Stall, e.Text)
		}
		writeCounters(&b, c, inj)
	}

	golden := filepath.Join("testdata", "fault_outcomes.golden")
	if *updateFaults {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("fault outcomes differ from %s:\n%s", golden, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines where want and got differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
