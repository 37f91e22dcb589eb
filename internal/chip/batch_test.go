package chip

import (
	"bytes"
	"math/rand"
	"testing"

	"davinci/internal/faults"
	"davinci/internal/isa"
	"davinci/internal/kernelcases"
	"davinci/internal/ops"
	"davinci/internal/tensor"
)

// TestBatchSumIndependentOfPlacement: conv2d_bwd_weights sums its
// per-image binary16 partials, whose rounding depends on the order. On
// real-valued inputs every core count, and a run whose tiles requeue
// after transient faults, must return the bytes of the one-core run: the
// partials are summed in image order, not in completion order.
func TestBatchSumIndependentOfPlacement(t *testing.T) {
	const kernel = "conv2d_bwd_weights"
	k, err := ops.Lookup(kernel)
	if err != nil {
		t.Fatal(err)
	}
	p := isa.ConvParams{Ih: 12, Iw: 12, Kh: 3, Kw: 3, Sh: 1, Sw: 1}
	d := k.Dims(p, tensor.C0, tensor.C0)
	rng := rand.New(rand.NewSource(3))
	inputs := kernelcases.Tensors(k, d, 4, 1, func(t *tensor.Tensor) { t.FillRandom(rng, 1) })
	run := func(cfg Config) []byte {
		t.Helper()
		outs, _, err := New(cfg).Run(kernel, d, inputs...)
		if err != nil {
			t.Fatalf("cores=%d: %v", cfg.Cores, err)
		}
		return outs[0].Data
	}
	want := run(Config{Cores: 1})
	for _, cores := range []int{2, 3, 4, 32} {
		if got := run(Config{Cores: cores}); !bytes.Equal(got, want) {
			t.Errorf("cores=%d: weight gradient differs from the one-core run", cores)
		}
	}
	// Every first attempt faults; each retry moves to another core and
	// succeeds, so tiles complete out of grid order.
	inj := faults.New(faults.Config{Seed: 7, Rate: 1, Kinds: []faults.Kind{faults.KindTransient}}, nil)
	requeued := New(Config{Cores: 3, Resilience: Resilience{Enabled: true, Injector: inj, CoreFailLimit: 1 << 30}})
	outs, _, err := requeued.Run(kernel, d, inputs...)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := requeued.Metrics().Snapshot().CounterValue("chip_tile_requeues"); v == 0 {
		t.Error("no tile was requeued")
	}
	if !bytes.Equal(outs[0].Data, want) {
		t.Error("requeued run: weight gradient differs from the one-core run")
	}
}

// TestRunBatchReadOnlyAndTransparent runs every catalogue kernel over a
// batch of three members, each an N=2 by C1=2 grid (N=2 for the
// convolutions) of its own integer inputs, clean and with every tile
// degraded after transient faults. Tiles read the members' tensors in
// place, so the inputs must come back byte-identical; and each member's
// outputs must equal a solo run of that member.
func TestRunBatchReadOnlyAndTransparent(t *testing.T) {
	const members = 3
	for _, kc := range kernelcases.All() {
		t.Run(kc.Name, func(t *testing.T) {
			k := kc.Kernel
			d := kernelcases.Dims(k, catalogueLayer)
			rng := rand.New(rand.NewSource(11))
			batch := make([][]*tensor.Tensor, members)
			saved := make([][]*tensor.Tensor, members)
			solo := make([][]*tensor.Tensor, members)
			for m := range batch {
				batch[m] = kernelcases.Tensors(k, d, 2, 2, kernelcases.Ints(rng))
				for _, in := range batch[m] {
					saved[m] = append(saved[m], in.Clone())
				}
				outs, _, err := New(Config{Cores: 3}).Run(k.Name, d, batch[m]...)
				if err != nil {
					t.Fatal(err)
				}
				solo[m] = outs
			}
			inj := faults.New(faults.Config{
				Seed: 1, Rate: 1, Kinds: []faults.Kind{faults.KindTransient}, MaxPerTile: 1 << 30,
			}, nil)
			for _, cfg := range []Config{
				{Cores: 3},
				{Cores: 3, Resilience: Resilience{Enabled: true, Injector: inj, MaxAttempts: 2, Degrade: true, CoreFailLimit: 1 << 30}},
			} {
				outs, st, err := New(cfg).RunBatch(k.Name, d, batch)
				if err != nil {
					t.Fatalf("degrade=%v: %v", cfg.Resilience.Degrade, err)
				}
				if cfg.Resilience.Degrade && len(st.Degraded) != st.Tiles {
					t.Errorf("%d of %d tiles degraded, want all", len(st.Degraded), st.Tiles)
				}
				for m := range batch {
					for i, in := range batch[m] {
						if !bytes.Equal(in.Data, saved[m][i].Data) {
							t.Errorf("degrade=%v: member %d input %d was written", cfg.Resilience.Degrade, m, i)
						}
					}
					for i, want := range solo[m] {
						got := outs[m][i]
						if !tensor.SameShape(got, want) || !bytes.Equal(got.Data, want.Data) {
							t.Errorf("degrade=%v: member %d output %d differs from its solo run", cfg.Resilience.Degrade, m, i)
						}
					}
				}
			}
		})
	}
}
