//go:build exhaustive

package fp16

import (
	"runtime"
	"sync"
	"testing"
)

// The exhaustive suite checks every lane kernel against its scalar oracle
// on all 2^32 operand pairs (every (a, s) pair for the scalar kernels),
// and MaxFold and AddFold on all 2^32 (accumulator, source) pairs.
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

// TestExhaustiveMaxFold checks a 2-source MaxFold over every
// (accumulator, source) pair at its first step: call v seeds the
// accumulator with v and the first source holds every value, so the 2^16
// calls cover all 2^32 pairs. The second source, a permutation of every
// value that differs per call, then steps each result once more. Every
// lane must equal the scalar chain Max(src1, Max(src0, v)).
func TestExhaustiveMaxFold(t *testing.T) {
	all := allValues()
	n := len(all)
	var wg sync.WaitGroup
	var once sync.Once
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src, dst := make([]byte, 2*n), make([]byte, n)
			copy(src, all)
			for v := w; v < 1<<16; v += workers {
				for i := 0; i < n; i += Bytes {
					Store(src, n+i, Float16(i/Bytes*0x9e37+v))
				}
				MaxFold(dst, Float16(v), src, n, 2)
				for i := 0; i < n; i += Bytes {
					s0, s1 := Load(src, i), Load(src, n+i)
					if got, want := Load(dst, i), Max(s1, Max(s0, Float16(v))); got != want {
						once.Do(func() {
							t.Errorf("MaxFold(init %#04x; %#04x, %#04x) = %#04x, want %#04x", v, s0, s1, got, want)
						})
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestExhaustiveAddFold checks a 2-source AddFold over every
// (accumulator, source) pair at its first step, for both starts. From a
// dup: call v broadcasts v into every accumulator lane and the first
// source holds every value. From R: the accumulator lanes hold every
// value and the first source is v in every lane. So each start's 2^16
// calls cover all 2^32 pairs. The second source, a permutation of every
// value that differs per call, then steps each result once more. Every
// lane must equal the scalar chain Add(src1, Add(src0, acc)).
func TestExhaustiveAddFold(t *testing.T) {
	all := allValues()
	n := len(all)
	offs := []int32{0, int32(n)}
	var wg sync.WaitGroup
	var once sync.Once
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src, start, dst := make([]byte, 2*n), make([]byte, n), make([]byte, n)
			for v := w; v < 1<<16; v += workers {
				for i := 0; i < n; i += Bytes {
					Store(src, n+i, Float16(i/Bytes*0x9e37+v))
				}
				for _, fromDup := range []bool{true, false} {
					if fromDup {
						fill(start, Float16(v))
						copy(src, all)
					} else {
						copy(start, all)
						fill(src[:n], Float16(v))
					}
					copy(dst, start)
					AddFold(dst, src, offs)
					for i := 0; i < n; i += Bytes {
						acc, s0, s1 := Load(start, i), Load(src, i), Load(src, n+i)
						if got, want := Load(dst, i), Add(s1, Add(s0, acc)); got != want {
							once.Do(func() {
								t.Errorf("AddFold(acc %#04x; %#04x, %#04x) = %#04x, want %#04x", acc, s0, s1, got, want)
							})
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
