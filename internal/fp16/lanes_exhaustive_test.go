//go:build exhaustive

package fp16

import (
	"runtime"
	"sync"
	"testing"
)

// The exhaustive suite checks every lane kernel against its scalar oracle
// on all 2^32 operand pairs (every (a, s) pair for the scalar kernels).
// Each kernel takes tens of seconds on two CPUs, so it is gated behind a
// build tag:
//
//	go test -tags exhaustive -run Exhaustive ./internal/fp16

// sweepAll checks k against its oracle on every (a, b) pair, or every
// (a, s) pair for the scalar kernels: one call per value of b, spread over
// GOMAXPROCS goroutines.
func sweepAll(t *testing.T, k laneKernel) {
	all := allValues()
	var wg sync.WaitGroup
	var once sync.Once
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cst, dst := make([]byte, len(all)), make([]byte, len(all))
			for v := w; v < 1<<16; v += workers {
				fill(cst, Float16(v))
				k.slice(dst, all, cst)
				for i := 0; i < len(dst); i += Bytes {
					x := Float16(i / Bytes)
					if got, want := Load(dst, i), k.oracle(x, Float16(v)); got != want {
						once.Do(func() {
							t.Errorf("%s(%#04x, %#04x) = %#04x, want %#04x", k.name, x, v, got, want)
						})
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestExhaustiveMaxSlice(t *testing.T)  { sweepAll(t, laneKernels()[0]) }
func TestExhaustiveMinSlice(t *testing.T)  { sweepAll(t, laneKernels()[1]) }
func TestExhaustiveAddSlice(t *testing.T)  { sweepAll(t, laneKernels()[2]) }
func TestExhaustiveSubSlice(t *testing.T)  { sweepAll(t, laneKernels()[3]) }
func TestExhaustiveMulSlice(t *testing.T)  { sweepAll(t, laneKernels()[4]) }
func TestExhaustiveAddsSlice(t *testing.T) { sweepAll(t, laneKernels()[5]) }
func TestExhaustiveMulsSlice(t *testing.T) { sweepAll(t, laneKernels()[6]) }
