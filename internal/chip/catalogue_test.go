package chip

import (
	"bytes"
	"math/rand"
	"testing"

	"davinci/internal/faults"
	"davinci/internal/isa"
	"davinci/internal/kernelcases"
	"davinci/internal/ops"
	"davinci/internal/trace"
)

// catalogueLayer is small enough to run every kernel quickly, with
// padding and overlapping windows.
var catalogueLayer = isa.ConvParams{Ih: 9, Iw: 9, Kh: 3, Kw: 3, Sh: 2, Sw: 2, Pt: 1, Pb: 1, Pl: 1, Pr: 1}

// TestEveryKernelChipRunAndFallback runs every catalogue kernel on a
// multi-tile grid (N=2 by C1=2 for the pooling kernels, N=2 for the
// convolutions). The chip run must equal the kernel's golden model on
// the whole tensors, and the same run with every attempt faulted must
// degrade every tile to the golden model and return the same bytes.
func TestEveryKernelChipRunAndFallback(t *testing.T) {
	for _, k := range ops.Kernels() {
		t.Run(k.Name, func(t *testing.T) {
			d := kernelcases.Dims(k, catalogueLayer)
			inputs := kernelcases.Tensors(k, d, 2, 2, kernelcases.Ints(rand.New(rand.NewSource(5))))
			want := k.Golden(d, inputs)

			got, st, err := New(Config{Cores: 3}).Run(k.Name, d, inputs...)
			if err != nil {
				t.Fatal(err)
			}
			tiles := 4
			if k.Inputs[0].Tiling == ops.ByN {
				tiles = 2
			}
			if st.Tiles != tiles {
				t.Fatalf("%d tiles, want %d", st.Tiles, tiles)
			}
			for i := range want {
				if !bytes.Equal(got[i].Data, want[i].Data) {
					t.Errorf("output %d differs from the golden model", i)
				}
			}

			inj := faults.New(faults.Config{
				Seed: 1, Rate: 1, Kinds: []faults.Kind{faults.KindTransient}, MaxPerTile: 1 << 30,
			}, nil)
			chaos := New(Config{Cores: 3, Resilience: Resilience{
				Enabled: true, Injector: inj, MaxAttempts: 2, Degrade: true, CoreFailLimit: 1 << 30,
			}})
			degraded, st, err := chaos.Run(k.Name, d, inputs...)
			if err != nil {
				t.Fatalf("degradation enabled, yet the run failed: %v", err)
			}
			if len(st.Degraded) != tiles {
				t.Errorf("%d tiles degraded, want all %d", len(st.Degraded), tiles)
			}
			for i := range want {
				if !bytes.Equal(degraded[i].Data, want[i].Data) {
					t.Errorf("degraded output %d differs from the golden model", i)
				}
			}
		})
	}
}

// TestTracedAutoScheduleNestsSearch: a traced AutoSchedule chip run of
// every kernel with a schedule space compiles through the search, whose
// one sched_search span nests under the run's plan_compile span.
func TestTracedAutoScheduleNestsSearch(t *testing.T) {
	p := isa.ConvParams{Ih: 16, Iw: 16, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	for _, k := range ops.Kernels() {
		if k.Fixed != "" {
			continue
		}
		t.Run(k.Name, func(t *testing.T) {
			tracer := trace.New()
			c := New(Config{Cores: 2, AutoSchedule: true, Trace: tracer.Root()})
			d := kernelcases.Dims(k, p)
			inputs := kernelcases.Tensors(k, d, 1, 1, kernelcases.Ints(rand.New(rand.NewSource(2))))
			if _, _, err := c.Run(k.Name, d, inputs...); err != nil {
				t.Fatal(err)
			}
			spans := tracer.Finished()
			var compile trace.SpanID
			for _, s := range spans {
				if s.Name == "plan_compile" {
					compile = s.ID
				}
			}
			if compile == 0 {
				t.Fatal("no plan_compile span")
			}
			nested := 0
			for _, s := range spans {
				if s.Name == "sched_search" && s.Parent == compile {
					nested++
				}
			}
			if nested != 1 || tracer.Count("sched_search") != 1 {
				t.Errorf("%d sched_search span(s) under plan_compile, %d in all; want exactly 1",
					nested, tracer.Count("sched_search"))
			}
		})
	}
}
