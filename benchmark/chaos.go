package main

import (
	"davinci/internal/chip"
	"davinci/internal/faults"
	"davinci/internal/obs"
)

// chaosFaultSeed fixes the fault schedule of chaos-fig7. The injector
// decides faults from (seed, tile, attempt) alone, so the seed picks which
// tiles fault on every request, and a per-run fault seed would make some
// runs fault-free and others degrade whole layers. Under this one, at a 5%
// rate, tiles (0,3) and (0,7) fault once and succeed on retry, so every
// request retries one tile (two on the 71x71 and 35x35 layers), and tile
// (0,12) faults on both attempts, so every request on the 35x35 layer, a
// third of the mix, has that tile computed by the golden model. Tiles of
// a second batch member never fault, so batching, which the run seed
// varies, changes no fault.
const chaosFaultSeed = 2044

// chaosResilience is the chaos-fig7 executor configuration, and the
// benchmark's only dependency on chip.Resilience.Enabled, a field slated
// for removal once the resilient executor is the only one. Keep it here
// so that change touches one small file.
//
// Only transient and bitflip faults are injected: stuckpipe and
// droppedflag both hang the core until the wall-clock watchdog fires, so
// they would measure the watchdog constant, not the serving stack. Tiles
// that exhaust their attempts degrade on the chip, so no batch fails and
// the circuit breakers, whose cooldowns are wall-clock constants too,
// stay closed. Attempt tracing is off (TraceTail -1): clean attempts
// replay the flattened program, faulted ones are interpreted.
func chaosResilience(reg *obs.Registry) chip.Resilience {
	return chip.Resilience{
		Enabled: true,
		Injector: faults.New(faults.Config{
			Seed:       chaosFaultSeed,
			Rate:       0.05,
			Kinds:      []faults.Kind{faults.KindTransient, faults.KindBitFlip},
			MaxPerTile: 3,
		}, reg),
		MaxAttempts: 2,
		Degrade:     true,
		TraceTail:   -1,
	}
}
