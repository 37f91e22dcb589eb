package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts. On the shared 2-vCPU machine the bounds were
// measured on, a fixed loop took from 1x to 4x its uncontended time from
// one 5 ms sample to the next, and runs minutes apart differed by up to
// 38% in CPU per request. A speed probe therefore runs through every
// measured set-up and window, and the time metrics are reported at the
// speed of a reference host.

// refUnitNS is the CPU time of one probe unit on the reference host: a
// 2-vCPU KVM guest on an Intel Xeon (Sapphire Rapids) at 2.0 GHz, with no
// contention from other guests.
const refUnitNS = 25e3

// probeEvery is the probe's sampling period; a unit every 5 ms costs the
// run about 0.5% of one CPU.
const probeEvery = 5 * time.Millisecond

// probeUnit is a fixed unit of CPU work that runs no code of this
// repository, so no change to the repository moves it: float32 arithmetic
// and bit manipulation over an L1-resident working set, the kind of work
// the simulator's vector lanes do.
func probeUnit(lanes []float32) {
	for r := 0; r < 8; r++ {
		for i := range lanes {
			x := lanes[i]
			lanes[i] = math.Float32frombits(math.Float32bits(x*1.0009765625+0.25) &^ 0x1fff)
		}
	}
}

// threadCPU is the calling OS thread's CPU time, from the scheduler's
// nanosecond accounting (getrusage only counts whole clock ticks).
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	// Cannot fail for a valid clock on the calling thread.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speedProbe runs one probe unit every probeEvery on its own OS thread
// and times it in that thread's CPU time, which leaves out any wait for a
// CPU: it measures how fast the host executes, not how busy the
// benchmark keeps it.
type speedProbe struct {
	stop chan struct{}
	done chan []float64
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		lanes := make([]float32, 4096)
		for i := range lanes {
			lanes[i] = float32(i%97) / 97
		}
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		var units []float64
		for {
			select {
			case <-p.stop:
				p.done <- units
				return
			case <-tick.C:
			}
			t0 := threadCPU()
			probeUnit(lanes)
			units = append(units, float64(threadCPU()-t0))
		}
	}()
	return p
}

// finish stops the probe and returns the host's speed over its life: the
// reference unit time over the mean measured one, so 1 on the reference
// host and 0.5 when units took twice as long. The mean, not the median,
// because a run slows in proportion to the share of its time the host
// spends slow.
func (p *speedProbe) finish() float64 {
	close(p.stop)
	units := <-p.done
	if len(units) == 0 {
		return 1
	}
	return refUnitNS / mean(units)
}
