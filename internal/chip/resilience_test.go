package chip

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"davinci/internal/aicore"
	"davinci/internal/cce"
	"davinci/internal/faults"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/kernelcases"
	"davinci/internal/ops"
	"davinci/internal/tensor"
	"davinci/internal/workloads"
)

// chaosLayer is a small Table I layer (InceptionV3 pool 3: 35x35x288,
// kernel 3, stride 2) — 18 C1 tiles, enough to exercise requeueing
// across cores.
func chaosLayer() (isa.ConvParams, int) {
	for _, l := range workloads.TableI {
		if l.Network == "InceptionV3" && l.Index == 3 {
			return l.Params(), l.C1()
		}
	}
	panic("InceptionV3 pool 3 missing from Table I")
}

func chaosInput(t *testing.T, p isa.ConvParams, n, c1 int) *tensor.Tensor {
	t.Helper()
	in := tensor.New(n, c1, p.Ih, p.Iw, tensor.C0)
	in.FillRandom(rand.New(rand.NewSource(7)), 4)
	return in
}

// TestChaosBitIdentity is the headline chaos test: a Table I layer with
// fault injection enabled at a fixed seed, every kind armed, retries
// guaranteed to succeed (MaxPerTile < MaxAttempts) and degradation off.
// The output must be bit-identical to the fault-free run.
func TestChaosBitIdentity(t *testing.T) {
	p, c1 := chaosLayer()
	in := chaosInput(t, p, 2, c1)

	clean := New(Config{Cores: 4})
	want, _, err := clean.MaxPoolForward("im2col", in, p)
	if err != nil {
		t.Fatal(err)
	}

	inj := faults.New(faults.Config{Seed: 1, Rate: 0.5, MaxPerTile: 1}, nil)
	chaos := New(Config{Cores: 4, Resilience: Resilience{
		Enabled:       true,
		Injector:      inj,
		MaxAttempts:   3,
		CoreFailLimit: 1 << 30, // never mark cores bad: retries must succeed
	}})
	got, st, err := chaos.MaxPoolForward("im2col", in, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatal("chaos output differs from fault-free output")
	}
	if len(st.Degraded) != 0 {
		t.Fatalf("degradation off, yet %d tiles degraded", len(st.Degraded))
	}
	var injected int64
	for _, k := range faults.AllKinds() {
		injected += inj.Injected(k)
	}
	if injected == 0 {
		t.Fatal("chaos run at rate 0.5 injected nothing")
	}
	// The injector's counters and the executor's live in the same chip
	// snapshot (acceptance: counters appear in the obs.Registry snapshot).
	retries, ok := st.Metrics.CounterValue("chip_tile_retries")
	if !ok || retries == 0 {
		t.Fatalf("chip_tile_retries = %d, %v; want nonzero", retries, ok)
	}
	for _, name := range []string{"chip_tile_requeues", "chip_tiles_degraded", "chip_tile_hangs", "chip_retry_backoff_cycles"} {
		if _, ok := st.Metrics.CounterValue(name); !ok {
			t.Errorf("%s missing from snapshot", name)
		}
	}
	if v, ok := st.Metrics.CounterValue("faults_injected", "kind", "transient"); !ok {
		t.Errorf("faults_injected{kind=transient} missing from snapshot (value %d)", v)
	}
}

// TestChaosDeterminism: two chips with identical chaos configs inject the
// same faults and produce identical outputs and fault counts.
func TestChaosDeterminism(t *testing.T) {
	p, c1 := chaosLayer()
	in := chaosInput(t, p, 1, c1)
	run := func() (*tensor.Tensor, *faults.Injector) {
		inj := faults.New(faults.Config{Seed: 11, Rate: 0.4, MaxPerTile: 1}, nil)
		chaos := New(Config{Cores: 3, Resilience: Resilience{
			Enabled: true, Injector: inj, CoreFailLimit: 1 << 30,
		}})
		out, _, err := chaos.MaxPoolForward("im2col", in, p)
		if err != nil {
			t.Fatal(err)
		}
		return out, inj
	}
	outA, injA := run()
	outB, injB := run()
	if !bytes.Equal(outA.Data, outB.Data) {
		t.Fatal("same seed, different outputs")
	}
	for _, k := range faults.AllKinds() {
		if a, b := injA.Injected(k), injB.Injected(k); a != b {
			t.Fatalf("kind %v: %d vs %d faults across identical runs", k, a, b)
		}
	}
}

// TestHangDroppedFlag: a program whose set_flag was dropped fails as a
// typed hang — it does not hang the test — and the error names the
// category, the blocked pipe and the unsatisfied wait_flag.
func TestHangDroppedFlag(t *testing.T) {
	p, c1 := chaosLayer()
	in := chaosInput(t, p, 1, c1)
	inj := faults.New(faults.Config{
		Seed: 5, Rate: 1, Kinds: []faults.Kind{faults.KindDroppedFlag}, MaxPerTile: 1 << 30,
	}, nil)
	chaos := New(Config{Cores: 2, Resilience: Resilience{
		Enabled: true, Injector: inj,
		MaxAttempts: 1, // no retries: the hang must surface as the run error
	}})
	_, _, err := chaos.MaxPoolForward("im2col", in, p)
	if err == nil {
		t.Fatal("dropped set_flag run succeeded")
	}
	if !errors.Is(err, ErrTileHang) {
		t.Fatalf("err %v does not match ErrTileHang", err)
	}
	var te *TileError
	if !errors.As(err, &te) {
		t.Fatalf("err %v carries no *TileError", err)
	}
	if !te.HasFlag {
		t.Fatalf("hang error %v does not identify the unsatisfied wait_flag", te)
	}
	if len(te.TraceTail) == 0 {
		t.Error("hang error carries no stall-trace tail")
	}
	msg := err.Error()
	if !strings.Contains(msg, "wait_flag") || !strings.Contains(msg, "blocked") {
		t.Errorf("error text %q does not name the blocked pipe and flag", msg)
	}
	if v, _ := chaos.Metrics().Snapshot().CounterValue("chip_tile_hangs"); v == 0 {
		t.Error("attempt hung but chip_tile_hangs is zero")
	}
}

// TestHangWithoutEnabled: a hang kind on a chip without Enabled — one
// attempt, no attempt tracing, no Context — fails the run typed
// ErrTileHang at once. Nothing closes the attempt's Cancel channel in
// this configuration, so a hang that waited on it would never return.
// The public facade reaches it as
// davinci.Resilience{Injector: davinci.NewFaultInjector(...)}.
func TestHangWithoutEnabled(t *testing.T) {
	p := faultGoldenLayer()
	in := chaosInput(t, p, 1, 1)
	for _, k := range []faults.Kind{faults.KindStuckPipe, faults.KindDroppedFlag} {
		inj := faults.New(faults.Config{Seed: 1, Rate: 1, Kinds: []faults.Kind{k}}, nil)
		c := New(Config{Cores: 1, Resilience: Resilience{Injector: inj}})
		done := make(chan error, 1)
		go func() {
			_, _, err := c.MaxPoolForward("im2col", in, p)
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%v: run still blocked after 30s", k)
		}
		var te *TileError
		if !errors.Is(err, ErrTileHang) || !errors.As(err, &te) {
			t.Fatalf("%v: err %v is not a *TileError matching ErrTileHang", k, err)
		}
		if te.Attempt != 1 || len(te.TraceTail) != 0 {
			t.Errorf("%v: attempt %d with %d trace entries, want attempt 1 untraced", k, te.Attempt, len(te.TraceTail))
		}
		if n := inj.Injected(k); n != 1 {
			t.Errorf("faults_injected{%v} = %d, want 1", k, n)
		}
	}
}

// TestHangCapturedTileNoTail: CaptureTrace traces tile (0, 0) even when a
// negative TraceTail turns hang reports' tails off; a hang there fails
// the run with an untraced report instead of crashing the classifier.
func TestHangCapturedTileNoTail(t *testing.T) {
	p := faultGoldenLayer()
	inj := faults.New(faults.Config{Seed: 1, Rate: 1, Kinds: []faults.Kind{faults.KindStuckPipe}}, nil)
	c := New(Config{Cores: 1, CaptureTrace: true, Resilience: Resilience{
		Enabled: true, Injector: inj, MaxAttempts: 1, TraceTail: -1,
	}})
	_, _, err := c.MaxPoolForward("im2col", chaosInput(t, p, 1, 1), p)
	var te *TileError
	if !errors.Is(err, ErrTileHang) || !errors.As(err, &te) {
		t.Fatalf("err %v is not a *TileError matching ErrTileHang", err)
	}
	if len(te.TraceTail) != 0 {
		t.Errorf("TraceTail -1, yet the hang report carries %d entries", len(te.TraceTail))
	}
}

// TestFaultedAttemptsOnlyTraced: only a faulted attempt can leave a hang
// report to write, so under Enabled (a trace tail of 8) every clean
// attempt runs on an untraced core, the retries of faulted ones too.
func TestFaultedAttemptsOnlyTraced(t *testing.T) {
	prog := vectorOnly()
	inj := faults.New(faults.Config{Seed: 1, Rate: 0.5, Kinds: []faults.Kind{faults.KindStuckPipe}}, nil)
	c := New(Config{Cores: 2, Resilience: Resilience{Enabled: true, Injector: inj, CoreFailLimit: 1 << 30}})
	var clean, traced atomic.Int32
	_, _, err := c.runTiles(nil, prog, 2, 4, func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
		clean.Add(1)
		if core.Trace != nil {
			traced.Add(1)
		}
		return []*tensor.Tensor{tensor.New(1)}, &aicore.Stats{Cycles: 1}, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hangs := inj.Injected(faults.KindStuckPipe); hangs == 0 || clean.Load() != 8 {
		t.Fatalf("%d hangs and %d clean attempts, want some hangs and 8 clean attempts", hangs, clean.Load())
	}
	if n := traced.Load(); n != 0 {
		t.Errorf("%d of %d clean attempts ran on a traced core", n, clean.Load())
	}
}

// TestRetryRequeueSuccess: every tile's first attempt wedges a pipe and
// fails as a hang; the retry — on a fresh core, requeued away from the
// one that failed — succeeds. Exact counter arithmetic is deterministic
// because fault decisions are schedule-independent.
func TestRetryRequeueSuccess(t *testing.T) {
	p, c1 := chaosLayer()
	in := chaosInput(t, p, 1, c1)
	tiles := int64(c1)
	inj := faults.New(faults.Config{
		Seed: 9, Rate: 1, Kinds: []faults.Kind{faults.KindStuckPipe}, MaxPerTile: 1,
	}, nil)
	chaos := New(Config{Cores: 4, Resilience: Resilience{
		Enabled: true, Injector: inj,
		MaxAttempts: 3, CoreFailLimit: 1 << 30,
	}})
	want, _, err := New(Config{Cores: 4}).MaxPoolForward("im2col", in, p)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := chaos.MaxPoolForward("im2col", in, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatal("retried output differs from fault-free output")
	}
	if n := inj.Injected(faults.KindStuckPipe); n != tiles {
		t.Errorf("stuck-pipe faults = %d, want %d (one per tile)", n, tiles)
	}
	for name, want := range map[string]int64{
		"chip_tile_retries":   tiles,
		"chip_tile_requeues":  tiles,
		"chip_tile_hangs":     tiles,
		"chip_tiles_degraded": 0,
	} {
		if v, ok := st.Metrics.CounterValue(name); !ok || v != want {
			t.Errorf("%s = %d (present %v), want %d", name, v, ok, want)
		}
	}
	if v, _ := st.Metrics.CounterValue("chip_retry_backoff_cycles"); v != tiles*1024 {
		t.Errorf("chip_retry_backoff_cycles = %d, want %d", v, tiles*1024)
	}
}

// TestDegradationReport: every attempt of every tile faults, so each tile
// exhausts its retries and falls back to the golden model. The run still
// succeeds, the output matches the fault-free run (the golden model is
// bit-exact against the kernels), and the degraded tiles are reported.
func TestDegradationReport(t *testing.T) {
	p, c1 := chaosLayer()
	in := chaosInput(t, p, 1, c1)
	inj := faults.New(faults.Config{
		Seed: 3, Rate: 1, Kinds: []faults.Kind{faults.KindTransient}, MaxPerTile: 1 << 30,
	}, nil)
	chaos := New(Config{Cores: 4, Resilience: Resilience{
		Enabled: true, Injector: inj, Degrade: true,
		MaxAttempts: 2, CoreFailLimit: 1 << 30,
	}})
	want, _, err := New(Config{Cores: 4}).MaxPoolForward("im2col", in, p)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := chaos.MaxPoolForward("im2col", in, p)
	if err != nil {
		t.Fatalf("degradation enabled, yet the run failed: %v", err)
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatal("degraded output differs from fault-free output")
	}
	if len(st.Degraded) != c1 {
		t.Fatalf("Degraded reports %d tiles, want %d", len(st.Degraded), c1)
	}
	for i, d := range st.Degraded {
		if d.C1 != i {
			t.Fatalf("Degraded[%d] = tile (%d,%d); want sorted by (N,C1)", i, d.N, d.C1)
		}
		if d.Attempts != 2 {
			t.Errorf("tile (%d,%d): %d attempts recorded, want 2", d.N, d.C1, d.Attempts)
		}
		if d.LastErr == "" {
			t.Errorf("tile (%d,%d): empty LastErr", d.N, d.C1)
		}
	}
	if v, _ := st.Metrics.CounterValue("chip_tiles_degraded"); v != int64(c1) {
		t.Errorf("chip_tiles_degraded = %d, want %d", v, c1)
	}
}

// vectorOnly is a two-instruction program on the vector pipe alone.
func vectorOnly() *cce.Program {
	prog := cce.New("vector-only")
	prog.EmitVec(isa.VDup, isa.Contig(isa.UB, 0), isa.Operand{}, isa.Operand{}, fp16.One, isa.FullMask(), 2)
	prog.EmitVec(isa.VAdds, isa.Contig(isa.UB, 512), isa.Contig(isa.UB, 0), isa.Operand{}, fp16.One, isa.FullMask(), 2)
	return prog
}

// TestFaultDroppedFlagNothingToDrop: a program on one pipe has no
// cross-pipe dependency, so its AutoSync form has no set_flag to drop. A
// dropped-flag decision then fires nothing: the attempt runs clean,
// returns the clean run's bytes and Stats, and no fault is counted.
func TestFaultDroppedFlagNothingToDrop(t *testing.T) {
	prog := vectorOnly()
	run := func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
		st, err := core.Run(prog)
		if err != nil {
			return nil, nil, err
		}
		return []*tensor.Tensor{core.Mem.ReadTensor(isa.UB, 512, 256)}, st, nil
	}
	clean, _, err := New(Config{Cores: 1}).runTiles(nil, prog, 1, 1, run, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(faults.Config{Seed: 1, Rate: 1, Kinds: []faults.Kind{faults.KindDroppedFlag}, MaxPerTile: 1 << 30}, nil)
	c := New(Config{Cores: 1, Resilience: Resilience{Enabled: true, Injector: inj, MaxAttempts: 1}})
	got, st, err := c.runTiles(nil, prog, 1, 1, run, nil)
	if err != nil {
		t.Fatalf("dropped flag with nothing to drop failed the run: %v", err)
	}
	if !bytes.Equal(got[0][0].outs[0].Data, clean[0][0].outs[0].Data) || *got[0][0].stats != *clean[0][0].stats {
		t.Errorf("attempt returned %v, want the clean run's bytes and stats %v", got[0][0].stats, clean[0][0].stats)
	}
	if n := inj.Injected(faults.KindDroppedFlag); n != 0 {
		t.Errorf("faults_injected{droppedflag} = %d, want 0", n)
	}
	if v, _ := st.Metrics.CounterValue("chip_tile_retries"); v != 0 {
		t.Errorf("chip_tile_retries = %d, want 0", v)
	}
}

// TestPanicRecovery drives runTiles directly with a closure that panics
// on the first attempt of one tile: the panic must become a typed,
// retryable error (satellite: recover worker panics), and the retry must
// complete the run.
func TestPanicRecovery(t *testing.T) {
	c := New(Config{Cores: 2, Resilience: Resilience{
		Enabled: true, CoreFailLimit: 1 << 30,
	}})
	var panicked atomic.Bool
	results, st, err := c.runTiles(nil, nil, 2, 2, func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
		if ni == 0 && ci == 1 && panicked.CompareAndSwap(false, true) {
			panic("tile worker exploded")
		}
		return []*tensor.Tensor{tensor.New(1)}, &aicore.Stats{Cycles: 1}, nil
	}, nil)
	if err != nil {
		t.Fatalf("panic was not recovered into a retry: %v", err)
	}
	total := 0
	for _, rs := range results {
		total += len(rs)
	}
	if total != 4 {
		t.Fatalf("%d tiles completed, want 4", total)
	}
	if v, _ := st.Metrics.CounterValue("chip_tile_panics"); v != 1 {
		t.Errorf("chip_tile_panics = %d, want 1", v)
	}
}

// TestPanicExhaustion: a tile that panics on every attempt fails the run
// with a typed ErrTilePanic carrying the core index, tile and stack.
func TestPanicExhaustion(t *testing.T) {
	c := New(Config{Cores: 2, Resilience: Resilience{
		Enabled: true, MaxAttempts: 2, CoreFailLimit: 1 << 30,
	}})
	_, _, err := c.runTiles(nil, nil, 1, 2, func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
		if ci == 0 {
			panic("always broken")
		}
		return []*tensor.Tensor{tensor.New(1)}, &aicore.Stats{}, nil
	}, nil)
	if !errors.Is(err, ErrTilePanic) {
		t.Fatalf("err %v does not match ErrTilePanic", err)
	}
	var te *TileError
	if !errors.As(err, &te) {
		t.Fatalf("err %v carries no *TileError", err)
	}
	if te.N != 0 || te.C1 != 0 {
		t.Errorf("panic attributed to tile (%d,%d), want (0,0)", te.N, te.C1)
	}
	if len(te.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
}

// TestFailFastCancelsInFlight: with a context armed, a deterministic tile
// failure cancels the other cores' remaining work (satellite: early abort
// through runTiles).
func TestFailFastCancelsInFlight(t *testing.T) {
	c := New(Config{Cores: 2, Context: context.Background()})
	boom := errors.New("deterministic tile bug")
	var ran atomic.Int32
	_, _, err := c.runTiles(nil, nil, 2, 2, func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
		ran.Add(1)
		if ni == 0 && ci == 0 {
			return nil, nil, boom
		}
		// Park until cancelled so the test observes the abort, not a race.
		if core.Cancel != nil {
			<-core.Cancel
		}
		return nil, nil, aicore.ErrInterrupted
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err %v does not surface the primary failure", err)
	}
	if errors.Is(err, aicore.ErrInterrupted) {
		t.Errorf("joined error %v leaks secondary interruption casualties", err)
	}
}

// TestValidateAtEntryPoints: malformed ConvParams and mis-shaped inputs
// are rejected before any core execution.
func TestValidateAtEntryPoints(t *testing.T) {
	c := New(Config{Cores: 1})
	in := tensor.New(1, 1, 8, 8, tensor.C0)
	bad := isa.ConvParams{Ih: 8, Iw: 8, Kh: 0, Kw: 3, Sh: 1, Sw: 1}
	if _, _, err := c.MaxPoolForward("im2col", in, bad); err == nil {
		t.Error("MaxPoolForward accepted Kh=0")
	}
	if _, _, err := c.AvgPoolForward("im2col", in, bad); err == nil {
		t.Error("AvgPoolForward accepted Kh=0")
	}
	if _, _, _, err := c.MaxPoolForwardArgmax("im2col", in, bad); err == nil {
		t.Error("MaxPoolForwardArgmax accepted Kh=0")
	}
	if _, _, err := c.AvgPoolBackward("col2im", in, bad); err == nil {
		t.Error("AvgPoolBackward accepted Kh=0")
	}
	w := tensor.New(16, 16, 3, 3)
	if _, _, err := c.Conv2D(in, w, bad); err == nil {
		t.Error("Conv2D accepted Kh=0")
	}
	if _, _, err := c.Conv2DBackwardData(in, w, bad, 16); err == nil {
		t.Error("Conv2DBackwardData accepted Kh=0")
	}
	if _, _, err := c.Conv2DBackwardWeights(in, in, bad, 16, 16); err == nil {
		t.Error("Conv2DBackwardWeights accepted Kh=0")
	}
	mask := tensor.New(1, 1, 3, 3, 16, tensor.C0)
	if _, _, err := c.MaxPoolBackward("col2im", mask, in, bad); err == nil {
		t.Error("MaxPoolBackward accepted Kh=0")
	}

	// Mis-shaped inputs fail before any tile runs, even on a chip that
	// would retry and degrade: each kernel's last input gets the wrong
	// extent in dimension 2 (a height, or the weights' Kh).
	p := isa.ConvParams{Ih: 8, Iw: 8, Kh: 3, Kw: 3, Sh: 1, Sw: 1}
	c = New(Config{Cores: 2, Resilience: Resilience{Enabled: true, Degrade: true}})
	for _, k := range ops.Kernels() {
		d := kernelcases.Dims(k, p)
		inputs := kernelcases.Tensors(k, d, 2, 2, func(*tensor.Tensor) {})
		last := inputs[len(inputs)-1]
		shape := append([]int(nil), last.Shape...)
		shape[2] *= 2
		inputs[len(inputs)-1] = tensor.New(shape...)
		if _, _, err := c.Run(k.Name, d, inputs...); err == nil {
			t.Errorf("%s accepted input %d of shape %v", k.Name, len(inputs)-1, shape)
		}
		// Tiles read input planes in place, so data shorter than its
		// shape must fail as early.
		inputs = kernelcases.Tensors(k, d, 2, 2, func(*tensor.Tensor) {})
		last = inputs[len(inputs)-1]
		inputs[len(inputs)-1] = &tensor.Tensor{Shape: last.Shape, Data: last.Data[:len(last.Data)-fp16.Bytes]}
		if _, _, err := c.Run(k.Name, d, inputs...); err == nil {
			t.Errorf("%s accepted input %d with %d bytes for shape %v", k.Name, len(inputs)-1, len(last.Data)-fp16.Bytes, last.Shape)
		}
	}
	// The cases of the typed entry points: a 16x16 image for 8x8 params,
	// and a gradient whose batch disagrees with the mask's.
	if _, _, err := c.Conv2D(tensor.New(1, 1, 16, 16, tensor.C0), tensor.New(16, 16, 3, 3), p); err == nil {
		t.Error("Conv2D accepted a 16x16 input for 8x8 params")
	}
	oh, ow := p.OutDims()
	if _, _, err := c.MaxPoolBackward("col2im", tensor.New(2, 1, 3, 3, p.PaddedPatches(), tensor.C0),
		tensor.New(1, 1, oh, ow, tensor.C0), p); err == nil {
		t.Error("MaxPoolBackward accepted a gradient of N=1 against a mask of N=2")
	}
	snap := c.Metrics().Snapshot()
	for _, name := range []string{"chip_tiles", "chip_tile_panics"} {
		if v, _ := snap.CounterValue(name); v != 0 {
			t.Errorf("%s = %d after rejected runs, want 0", name, v)
		}
	}
}
