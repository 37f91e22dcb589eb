package chip

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/isa"
	"davinci/internal/kernelcases"
	"davinci/internal/ops"
	"davinci/internal/tensor"
)

// TestPoolBoundAndPlacement drives runTiles over a 4 x Cores grid with a
// closure that records how many calls run at once: the host pool never
// runs more tiles concurrently than GOMAXPROCS, and first attempts keep
// the round-robin placement, so each core's cycles are the sum over the
// tiles whose grid index is that core's modulo Cores.
func TestPoolBoundAndPlacement(t *testing.T) {
	const cores = DefaultCores
	const n, c1 = 4, cores
	f := func(ni, ci int) int64 { return int64(1 + 100*ni + ci) }
	for _, pc := range policies {
		t.Run(pc.name, func(t *testing.T) {
			c := New(Config{Cores: cores, Resilience: pc.res})
			var inflight, peak atomic.Int64
			_, st, err := c.runTiles(nil, nil, n, c1, func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
				now := inflight.Add(1)
				for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
				}
				time.Sleep(200 * time.Microsecond) // let every runnable worker overlap
				inflight.Add(-1)
				return nil, &aicore.Stats{Cycles: f(ni, ci)}, nil
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if max := int64(runtime.GOMAXPROCS(0)); peak.Load() > max {
				t.Errorf("peak concurrent tiles = %d, want <= GOMAXPROCS = %d", peak.Load(), max)
			}
			want := make([]int64, cores)
			for i := 0; i < n*c1; i++ {
				want[i%cores] += f(i/c1, i%c1)
			}
			for k := range want {
				if st.CoreCycles[k] != want[k] {
					t.Errorf("core %d: %d cycles, want %d", k, st.CoreCycles[k], want[k])
				}
			}
		})
	}
}

// TestCoreReuseSafeForEveryKernel: a worker reuses its host core across
// clean attempts, so no plan may read scratch-pad bytes it did not write
// in the same run. Every kernel runs on a fresh core and on a core whose
// local buffers were first filled with 0xA5, and must produce
// byte-identical outputs and identical stats.
func TestCoreReuseSafeForEveryKernel(t *testing.T) {
	p, _ := chaosLayer()
	for _, kc := range kernelcases.All() {
		t.Run(kc.Name, func(t *testing.T) {
			pl, err := kc.Plan(ops.Spec{}, p)
			if err != nil {
				t.Fatal(err)
			}
			inputs := kc.Inputs(rand.New(rand.NewSource(3)), p)
			want, wantSt, err := pl.Run(aicore.New(buffer.Config{}, nil), inputs...)
			if err != nil {
				t.Fatal(err)
			}
			dirty := aicore.New(buffer.Config{}, nil)
			for _, b := range []isa.BufID{isa.L1, isa.UB, isa.L0A, isa.L0B, isa.L0C} {
				mem := dirty.Mem.Mem(b)
				for i := range mem {
					mem[i] = 0xA5
				}
			}
			got, st, err := pl.Run(dirty, inputs...)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !bytes.Equal(got[i].Data, want[i].Data) {
					t.Errorf("output %d differs on a dirty core", i)
				}
			}
			if *st != *wantSt {
				t.Errorf("stats %+v on a dirty core, want %+v", st, wantSt)
			}
		})
	}
}
