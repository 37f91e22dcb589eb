package serve

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"davinci/internal/chip"
	"davinci/internal/faults"
	"davinci/internal/isa"
	"davinci/internal/obs"
	"davinci/internal/ref"
	"davinci/internal/tensor"
	"davinci/internal/trace"
	"davinci/internal/workloads"
)

// smallParams is a fast host-friendly pooling layer: 12x12 spatial, 3x3
// kernel, stride 2.
func smallParams() isa.ConvParams {
	return isa.ConvParams{Ih: 12, Iw: 12, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
}

// smallInput builds a seeded NC1HWC0 input with the given N and C1=2.
func smallInput(rng *rand.Rand, n int) *tensor.Tensor {
	t := tensor.New(n, 2, 12, 12, tensor.C0)
	t.FillRandom(rng, 8)
	return t
}

func refFor(req Request) *tensor.Tensor {
	if req.Kernel == "avgpool" {
		return ref.AvgPoolForward(req.Input, req.Params)
	}
	return ref.MaxPoolForward(req.Input, req.Params)
}

// checkConservation asserts the package contract: every submitted request
// reached exactly one terminal outcome.
func checkConservation(t *testing.T, s *Server) {
	t.Helper()
	st := s.Stats()
	if lost := st.Lost(); lost != 0 {
		t.Fatalf("conservation violated: %d lost (%+v)", lost, st)
	}
}

func TestServeCompletesBitIdentical(t *testing.T) {
	tr := trace.New()
	s := New(Config{Chips: 2, Cores: 2, Trace: tr.Root()})
	defer s.Close()

	rng := rand.New(rand.NewSource(1))
	type item struct {
		req Request
		tk  *Ticket
	}
	var items []item
	for i := 0; i < 12; i++ {
		kernel := "maxpool"
		if i%2 == 1 {
			kernel = "avgpool"
		}
		req := Request{
			Kernel: kernel,
			Params: smallParams(),
			Input:  smallInput(rng, 1+i%3),
			Class:  Class(i % 3),
		}
		items = append(items, item{req, s.Submit(context.Background(), req)})
	}
	for i, it := range items {
		r := it.tk.Wait()
		if r.Outcome != OutcomeCompleted {
			t.Fatalf("request %d: outcome %s, err %v", i, r.Outcome, r.Err)
		}
		want := refFor(it.req)
		if !bytes.Equal(r.Output.Data, want.Data) {
			t.Fatalf("request %d: output not bit-identical to golden model", i)
		}
	}
	s.Drain()
	checkConservation(t, s)
	st := s.Stats()
	if st.Completed != 12 || st.Admitted != 12 {
		t.Fatalf("want 12 admitted+completed, got %+v", st)
	}
	if tr.Active() != 0 {
		t.Fatalf("span leak: Active = %d", tr.Active())
	}

	// A staged batch of MaxBatch members of mixed N returns what each
	// member's solo chip run returns.
	b := New(Config{Chips: 1, Cores: 3})
	defer b.Close()
	b.pause()
	var batch []item
	for i := 0; i < b.cfg.MaxBatch; i++ {
		req := Request{Kernel: "maxpool", Params: smallParams(), Input: smallInput(rng, 1+i%3)}
		batch = append(batch, item{req, b.Submit(context.Background(), req)})
	}
	b.resume()
	solo := chip.New(chip.Config{Cores: 3})
	for i, it := range batch {
		r := it.tk.Wait()
		if r.Outcome != OutcomeCompleted || r.BatchSize != len(batch) {
			t.Fatalf("batch member %d: outcome %s in a batch of %d, err %v", i, r.Outcome, r.BatchSize, r.Err)
		}
		want, _, err := solo.MaxPoolForward("im2col", it.req.Input, it.req.Params)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.SameShape(r.Output, want) || !bytes.Equal(r.Output.Data, want.Data) {
			t.Fatalf("batch member %d: output differs from its solo run", i)
		}
	}
	checkConservation(t, b)
}

func TestServeBatchingCoalesces(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Chips: 1, Cores: 2, MaxBatch: 8, Metrics: reg})
	defer s.Close()

	// Stage the queue while dispatch is held so the six same-shape
	// requests provably coalesce into one batch.
	s.pause()
	rng := rand.New(rand.NewSource(2))
	var tks []*Ticket
	for i := 0; i < 6; i++ {
		tks = append(tks, s.Submit(context.Background(), Request{
			Kernel: "maxpool",
			Params: smallParams(),
			Input:  smallInput(rng, 1),
		}))
	}
	s.resume()
	for i, tk := range tks {
		r := tk.Wait()
		if r.Outcome != OutcomeCompleted {
			t.Fatalf("request %d: outcome %s, err %v", i, r.Outcome, r.Err)
		}
		if r.BatchSize != 6 {
			t.Fatalf("request %d rode a batch of %d, want 6", i, r.BatchSize)
		}
	}
	snap := reg.Snapshot()
	if v, _ := snap.CounterValue("serve_batches"); v != 1 {
		t.Fatalf("serve_batches = %d, want 1 coalesced batch", v)
	}
	checkConservation(t, s)
}

func TestServeQueueFullAndEviction(t *testing.T) {
	s := New(Config{Chips: 1, Cores: 2, QueueLimit: 2})
	defer s.Close()
	s.pause()
	rng := rand.New(rand.NewSource(3))
	mk := func(class Class) Request {
		return Request{Kernel: "maxpool", Params: smallParams(), Input: smallInput(rng, 1), Class: class}
	}

	t1 := s.Submit(context.Background(), mk(ClassBatch))
	t2 := s.Submit(context.Background(), mk(ClassBatch))

	// Queue is full; another batch-class request finds no lower-class
	// victim and is refused outright.
	r3 := s.Submit(context.Background(), mk(ClassBatch)).Wait()
	if !errors.Is(r3.Err, ErrQueueFull) || r3.Outcome != OutcomeRejected {
		t.Fatalf("want ErrQueueFull rejection, got %s / %v", r3.Outcome, r3.Err)
	}

	// An interactive arrival evicts the youngest batch-class request.
	t4 := s.Submit(context.Background(), mk(ClassInteractive))
	r2 := t2.Wait()
	if !errors.Is(r2.Err, ErrShedding) || r2.Reason != "evicted" {
		t.Fatalf("want evicted ErrShedding, got %s / %v (reason %q)", r2.Outcome, r2.Err, r2.Reason)
	}

	s.resume()
	if r := t1.Wait(); r.Outcome != OutcomeCompleted {
		t.Fatalf("survivor 1: %s / %v", r.Outcome, r.Err)
	}
	if r := t4.Wait(); r.Outcome != OutcomeCompleted {
		t.Fatalf("survivor 4: %s / %v", r.Outcome, r.Err)
	}
	s.Drain()
	checkConservation(t, s)
	if hw := s.Stats().QueueHighWater; hw > 2 {
		t.Fatalf("queue high-water %d exceeds limit 2", hw)
	}
}

func TestServeSheddingByClass(t *testing.T) {
	// An SLO of 1ns makes any predicted latency an overload, so the
	// controller's class ordering is the only variable: batch and
	// standard shed, interactive never.
	s := New(Config{Chips: 1, Cores: 2, SLO: time.Nanosecond})
	defer s.Close()
	rng := rand.New(rand.NewSource(4))
	mk := func(class Class) Request {
		return Request{Kernel: "maxpool", Params: smallParams(), Input: smallInput(rng, 1), Class: class}
	}

	if r := s.Do(context.Background(), mk(ClassBatch)); !errors.Is(r.Err, ErrShedding) {
		t.Fatalf("batch class: want ErrShedding, got %s / %v", r.Outcome, r.Err)
	}
	if r := s.Do(context.Background(), mk(ClassStandard)); !errors.Is(r.Err, ErrShedding) {
		t.Fatalf("standard class: want ErrShedding, got %s / %v", r.Outcome, r.Err)
	}
	if r := s.Do(context.Background(), mk(ClassInteractive)); r.Outcome != OutcomeCompleted {
		t.Fatalf("interactive class: want completion, got %s / %v", r.Outcome, r.Err)
	}
	checkConservation(t, s)
}

func TestServeShedThresholds(t *testing.T) {
	// Unit-test the controller's two-step threshold directly: one SLO of
	// predicted overload sheds batch, two shed standard.
	s := New(Config{Chips: 1, Cores: 2, SLO: time.Millisecond, CyclesPerSecond: 1e9})
	defer s.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	mk := func(class Class, cycles int64) *pending {
		return &pending{req: Request{Class: class}, cycles: cycles}
	}
	const overOne = 1_500_000 // 1.5ms predicted at 1 GHz
	const overTwo = 2_500_000 // 2.5ms predicted
	const underOne = 500_000  // 0.5ms predicted
	if shed, _ := s.shedsLocked(mk(ClassBatch, underOne)); shed {
		t.Fatal("batch shed below SLO")
	}
	if shed, _ := s.shedsLocked(mk(ClassBatch, overOne)); !shed {
		t.Fatal("batch not shed above 1x SLO")
	}
	if shed, _ := s.shedsLocked(mk(ClassStandard, overOne)); shed {
		t.Fatal("standard shed below 2x SLO")
	}
	if shed, _ := s.shedsLocked(mk(ClassStandard, overTwo)); !shed {
		t.Fatal("standard not shed above 2x SLO")
	}
	if shed, _ := s.shedsLocked(mk(ClassInteractive, overTwo)); shed {
		t.Fatal("interactive shed by controller")
	}
}

func TestServeDegradeOnOverload(t *testing.T) {
	s := New(Config{Chips: 1, Cores: 2, SLO: time.Nanosecond, DegradeOnOverload: true})
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	req := Request{Kernel: "avgpool", Params: smallParams(), Input: smallInput(rng, 1), Class: ClassBatch}
	r := s.Do(context.Background(), req)
	if r.Outcome != OutcomeDegraded || r.Reason != "overload" {
		t.Fatalf("want overload degradation, got %s / %v (reason %q)", r.Outcome, r.Err, r.Reason)
	}
	if !bytes.Equal(r.Output.Data, refFor(req).Data) {
		t.Fatal("degraded output differs from golden model")
	}
	checkConservation(t, s)
}

func TestServeDeadlineBudget(t *testing.T) {
	// At one simulated cycle per host second, no deadline is meetable:
	// the static bound rejects up front.
	s := New(Config{Chips: 1, Cores: 2, CyclesPerSecond: 1})
	defer s.Close()
	rng := rand.New(rand.NewSource(6))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	r := s.Do(ctx, Request{Kernel: "maxpool", Params: smallParams(), Input: smallInput(rng, 1)})
	if !errors.Is(r.Err, ErrDeadlineBudget) || r.Outcome != OutcomeRejected {
		t.Fatalf("want ErrDeadlineBudget, got %s / %v", r.Outcome, r.Err)
	}
	checkConservation(t, s)
}

func TestServeCancelledWhileQueued(t *testing.T) {
	s := New(Config{Chips: 1, Cores: 2})
	defer s.Close()
	s.pause()
	rng := rand.New(rand.NewSource(7))
	ctx, cancel := context.WithCancel(context.Background())
	tk := s.Submit(ctx, Request{Kernel: "maxpool", Params: smallParams(), Input: smallInput(rng, 1)})
	cancel()
	s.resume()
	r := tk.Wait()
	if r.Outcome != OutcomeCancelled || !errors.Is(r.Err, ErrCancelled) {
		t.Fatalf("want cancellation, got %s / %v", r.Outcome, r.Err)
	}
	s.Drain()
	checkConservation(t, s)
}

func TestServeInvalidRequests(t *testing.T) {
	s := New(Config{Chips: 1, Cores: 2})
	defer s.Close()
	rng := rand.New(rand.NewSource(8))
	short := smallInput(rng, 1)
	short.Data = short.Data[:len(short.Data)-2]
	cases := []Request{
		{Kernel: "conv9000", Params: smallParams(), Input: smallInput(rng, 1)},
		{Kernel: "maxpool", Params: smallParams(), Input: nil},
		{Kernel: "maxpool", Params: isa.ConvParams{Ih: 8, Iw: 8, Kh: 3, Kw: 3, Sh: 2, Sw: 2}, Input: smallInput(rng, 1)},
		{Kernel: "maxpool", Params: smallParams(), Input: short}, // data shorter than its shape
	}
	for i, req := range cases {
		r := s.Do(context.Background(), req)
		if !errors.Is(r.Err, ErrInvalid) || r.Outcome != OutcomeRejected {
			t.Fatalf("case %d: want ErrInvalid, got %s / %v", i, r.Outcome, r.Err)
		}
	}
	checkConservation(t, s)
}

func TestServeClosedRejects(t *testing.T) {
	s := New(Config{Chips: 1, Cores: 2})
	s.Close()
	rng := rand.New(rand.NewSource(9))
	r := s.Do(context.Background(), Request{Kernel: "maxpool", Params: smallParams(), Input: smallInput(rng, 1)})
	if !errors.Is(r.Err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %s / %v", r.Outcome, r.Err)
	}
	checkConservation(t, s)
}

func TestServeBreakerDegradesAndProbes(t *testing.T) {
	// A chip that always faults (rate 1, faults outlasting the retry
	// budget) trips its breaker; every request still gets a correct
	// degraded response — availability degrades, liveness never.
	inj := faults.New(faults.Config{
		Seed:       11,
		Rate:       1,
		Kinds:      []faults.Kind{faults.KindTransient},
		MaxPerTile: 8,
	}, nil)
	s := New(Config{
		Chips: 1, Cores: 2,
		Resilience: chip.Resilience{
			Enabled:     true,
			Injector:    inj,
			MaxAttempts: 2,
		},
		DegradeOnFailure: true,
		BreakerFailLimit: 2,
		BreakerCooldown:  10 * time.Millisecond,
	})
	defer s.Close()
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 5; i++ {
		req := Request{Kernel: "maxpool", Params: smallParams(), Input: smallInput(rng, 1)}
		r := s.Do(context.Background(), req)
		if r.Outcome != OutcomeDegraded || r.Reason != "exec" {
			t.Fatalf("request %d: want exec degradation, got %s / %v", i, r.Outcome, r.Err)
		}
		if !bytes.Equal(r.Output.Data, refFor(req).Data) {
			t.Fatalf("request %d: degraded output differs from golden model", i)
		}
	}
	st := s.Stats()
	if st.BreakerTrips < 1 {
		t.Fatalf("breaker never tripped: %+v", st)
	}
	if st.BreakerProbes < 1 {
		t.Fatalf("breaker never probed half-open: %+v", st)
	}
	if st.Degraded != 5 {
		t.Fatalf("want 5 degraded, got %+v", st)
	}
	checkConservation(t, s)
}

func TestServeMixedShapesBatchSeparately(t *testing.T) {
	s := New(Config{Chips: 1, Cores: 2, MaxBatch: 8})
	defer s.Close()
	s.pause()
	rng := rand.New(rand.NewSource(12))
	big := isa.ConvParams{Ih: 16, Iw: 16, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	bigInput := tensor.New(1, 2, 16, 16, tensor.C0)
	bigInput.FillRandom(rng, 8)
	a := s.Submit(context.Background(), Request{Kernel: "maxpool", Params: smallParams(), Input: smallInput(rng, 1)})
	b := s.Submit(context.Background(), Request{Kernel: "maxpool", Params: big, Input: bigInput})
	s.resume()
	ra, rb := a.Wait(), b.Wait()
	if ra.Outcome != OutcomeCompleted || rb.Outcome != OutcomeCompleted {
		t.Fatalf("outcomes: %s / %s", ra.Outcome, rb.Outcome)
	}
	if ra.BatchSize != 1 || rb.BatchSize != 1 {
		t.Fatalf("different shapes must not share a batch: %d / %d", ra.BatchSize, rb.BatchSize)
	}
	checkConservation(t, s)
}

func TestRunLoadConservation(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Chips: 2, Cores: 2, Metrics: reg})
	defer s.Close()
	small := []workloads.CNNLayer{{Network: "unit", Index: 1, H: 12, W: 12, C: 32, Kernel: 3, Stride: 2}}
	rep := RunLoad(s, LoadOptions{Requests: 16, Seed: 42, Layers: small})
	if rep.Lost != 0 {
		t.Fatalf("load run lost %d requests: %+v", rep.Lost, rep)
	}
	if rep.Completed != 16 {
		t.Fatalf("unloaded fleet should complete everything: %+v", rep)
	}
	if rep.GoodputRPS <= 0 || rep.P99NS <= 0 {
		t.Fatalf("missing throughput/latency stats: %+v", rep)
	}
	rep.Publish(reg, "smoke", true)
	snap := reg.Snapshot()
	if v, ok := snap.GaugeValue("serve_goodput", "experiment", "serveload", "input", "smoke"); !ok || v != 16 {
		t.Fatalf("serve_goodput gauge = %d (ok=%v), want 16", v, ok)
	}
	if v, ok := snap.GaugeValue("serve_lost_requests", "experiment", "serveload", "input", "smoke"); !ok || v != 0 {
		t.Fatalf("serve_lost_requests gauge = %d (ok=%v), want 0", v, ok)
	}
	checkConservation(t, s)
}
