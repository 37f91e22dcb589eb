package main

import (
	"fmt"
	"math/rand"
	"time"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/fp16"
	"davinci/internal/ops"
	"davinci/internal/tensor"
	"davinci/internal/trace"
	"davinci/internal/workloads"
)

// timeMedian runs f reps times and returns the median wall time in ns.
func timeMedian(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = float64(time.Since(t0))
	}
	return median(ts)
}

// probes times single layers through their public functions, on the
// Fig. 7 layers whatever the workload. They run only in a traced run,
// after its windows, so they never perturb a measured one.
func probes(rng *rand.Rand) (map[string]float64, error) {
	v := map[string]float64{
		"aicore.new_core_us": timeMedian(21, func() { aicore.New(buffer.Config{}, nil) }) / 1e3,
	}

	// Compile every Fig. 7 plan on a fresh cache under the fleet's strict
	// spec, run each fresh im2col plan once (the full scoreboard), then
	// time its memoized replay on the same core.
	cache := ops.NewPlanCache()
	spec := ops.Spec{Strict: true}
	compile := map[string][]float64{}
	var firstRun []float64
	var firstNS, cycles float64
	for _, l := range workloads.InceptionV3Fig7() {
		tile := tensor.SliceC1(l.Input(rng), 0, 0)
		for _, kernel := range []string{"maxpool", "avgpool"} {
			for _, variant := range []string{"im2col", "standard"} {
				t0 := time.Now()
				pl, err := cachedPlan(cache, kernel, variant, spec, l)
				compile[variant] = append(compile[variant], ms(time.Since(t0)))
				if err != nil {
					return nil, fmt.Errorf("compile %s/%s %dx%d: %w", kernel, variant, l.H, l.W, err)
				}
				if variant != "im2col" {
					continue
				}
				core := aicore.New(buffer.Config{}, nil)
				t0 = time.Now()
				_, st, err := pl.Run(core, tile)
				d := time.Since(t0)
				if err != nil {
					return nil, fmt.Errorf("run %s %dx%d: %w", pl.Name, l.H, l.W, err)
				}
				firstRun = append(firstRun, ms(d))
				firstNS += float64(d)
				cycles += float64(st.Cycles)
				v[fmt.Sprintf("aicore.replay_us_per_tile.%s.%d", kernel, l.H)] =
					timeMedian(9, func() { pl.Run(core, tile) }) / 1e3
			}
		}
	}
	for variant, ts := range compile {
		v["ops.compile_ms_p50."+variant] = median(ts)
		v["ops.compile_ms_max."+variant] = sorted(ts)[len(ts)-1]
	}
	v["ops.first_run_ms_p50"] = median(firstRun)
	v["aicore.host_ns_per_sim_cycle"] = ratio(firstNS, cycles)

	// fp16 slice kernels over 64 KiB of random binary16 lanes.
	const kb = 64
	a, b, dst := make([]byte, kb<<10), make([]byte, kb<<10), make([]byte, kb<<10)
	for i := 0; i < len(a); i += fp16.Bytes {
		fp16.Store(a, i, fp16.FromFloat64(rng.Float64()*16-8))
		fp16.Store(b, i, fp16.FromFloat64(rng.Float64()*16-8))
	}
	v["fp16.add_ns_per_kb"] = timeMedian(31, func() { fp16.AddSlice(dst, a, b) }) / kb
	v["fp16.max_ns_per_kb"] = timeMedian(31, func() { fp16.MaxSlice(dst, a, b) }) / kb

	// Golden model, one whole N=1 request per Fig. 7 layer.
	for _, kernel := range []string{"maxpool", "avgpool"} {
		var ts []float64
		for _, l := range workloads.InceptionV3Fig7() {
			x := l.Input(rng)
			ts = append(ts, timeMedian(3, func() { refForward(kernel, x, l) })/1e6)
		}
		v["ref.ms_per_request."+kernel] = mean(ts)
	}
	return v, nil
}

func cachedPlan(c *ops.PlanCache, kernel, variant string, spec ops.Spec, l workloads.CNNLayer) (*ops.Plan, error) {
	if kernel == "avgpool" {
		return c.AvgPoolForward(trace.Ctx{}, variant, spec, l.Params())
	}
	return c.MaxPoolForward(trace.Ctx{}, variant, spec, l.Params())
}
