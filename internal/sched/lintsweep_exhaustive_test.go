//go:build exhaustive

package sched

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"davinci/internal/isa"
)

// TestExhaustiveScheduleLintSweep runs the schedule-space lint sweep
// (sweepShape) over the Table I domain: square unpadded inputs under both
// Table I pooling configurations (k3s2 and k2s2), S in [17, 224] for the
// fractal lowerings (im2col, col2im, cube) and S in [17, 64] for the
// direct ones, whose programs grow quadratically in S. Every kernel of the
// dispatch table, every candidate the search probes in the kernel's own
// mode, every distinct program compiled strict and checked with the
// explicit-sync checks. Error-severity findings fail; warnings are
// reported per kernel. Shapes are spread over GOMAXPROCS workers.
//
//	go test -tags exhaustive -run Exhaustive -timeout 30m ./internal/sched
func TestExhaustiveScheduleLintSweep(t *testing.T) {
	type job struct {
		kernel string
		p      isa.ConvParams
	}
	var jobs []job
	for _, kernel := range allKernels() {
		hi := 64
		switch _, mode, _ := strings.Cut(kernel, "/"); mode {
		case "im2col", "col2im", "cube":
			hi = 224
		}
		for _, k := range []int{3, 2} {
			for s := 17; s <= hi; s++ {
				jobs = append(jobs, job{kernel, isa.ConvParams{Ih: s, Iw: s, Kh: k, Kw: k, Sh: 2, Sw: 2}})
			}
		}
	}

	start := time.Now()
	var (
		mu       sync.Mutex
		byKernel = map[string]*sweepCount{}
		failures int
		wg       sync.WaitGroup
	)
	for _, kernel := range allKernels() {
		byKernel[kernel] = &sweepCount{}
	}
	next := make(chan job)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				n, err := sweepShape(j.kernel, j.p)
				mu.Lock()
				byKernel[j.kernel].add(n)
				if err != nil {
					failures++
					if failures <= 20 {
						t.Error(err)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	if failures > 20 {
		t.Errorf("... %d failing shapes in all", failures)
	}
	// Warnings do not fail the sweep (the gate is error severity, as for
	// strict compiles), but every kernel that has them is reported.
	var total sweepCount
	for _, kernel := range allKernels() {
		n := byKernel[kernel]
		total.add(*n)
		t.Logf("%-28s %5d programs, %4d with warnings; skipped %4d invalid, %3d over capacity",
			kernel, n.programs, n.warned, n.invalid, n.capacity)
		if n.example != "" {
			t.Logf("    e.g. %s", n.example)
		}
	}
	t.Logf("%d kernels, %d shapes: %d programs checked (%d with warnings); skipped %d invalid schedules, %d over capacity; %d failing shapes; %v wall on %d workers",
		len(allKernels()), len(jobs), total.programs, total.warned, total.invalid, total.capacity, failures,
		time.Since(start).Round(time.Second), runtime.GOMAXPROCS(0))
}
