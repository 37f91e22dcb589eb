package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"davinci/internal/obs"
	"davinci/internal/ref"
	"davinci/internal/serve"
	"davinci/internal/tensor"
	"davinci/internal/workloads"
)

// shape is one request type: a forward pooling kernel, its lowering and
// the layer it runs on.
type shape struct {
	kernel  string // "maxpool" or "avgpool"
	variant string // "im2col" or "standard"
	layer   int    // index into the workload's layers
}

// workload is one traffic mix the benchmark offers to a fleet.
type workload struct {
	name string
	// why is the one-line reason the workload exists; BENCHMARK.json
	// carries the same line.
	why    string
	layers []workloads.CNNLayer
	shapes []shape
	// rate is the open-loop arrival rate in requests per second; 0 marks
	// the closed-loop workload (one client, a fresh fleet per pass).
	rate float64
	// limit is the latency limit behind slo_attainment.
	limit time.Duration
	// refusals marks admission refusals (queue_full, shed, evicted) as the
	// designed outcome rather than a failure.
	refusals bool
	// chaos runs the fleet on the resilient executor with seeded faults.
	chaos bool
	// queue, maxBatch and slo configure admission and batching.
	queue, maxBatch int
	slo             time.Duration
}

func fig7Shapes(kernels ...string) []shape {
	var out []shape
	for li := range workloads.InceptionV3Fig7() {
		for _, k := range kernels {
			out = append(out, shape{kernel: k, variant: "im2col", layer: li})
		}
	}
	return out
}

func tableIShapes() []shape {
	var out []shape
	for li := range workloads.TableI {
		for _, k := range []string{"maxpool", "avgpool"} {
			for _, v := range []string{"im2col", "standard"} {
				out = append(out, shape{kernel: k, variant: v, layer: li})
			}
		}
	}
	return out
}

// allWorkloads is the benchmark's fixed set, in the order a full run
// executes them.
var allWorkloads = []*workload{
	{
		name:     "steady-fig7",
		why:      "Fig. 7 InceptionV3 layers, max+avg, 15 rps open loop well below capacity: per-request replay sets latency; admission, batching and compile idle",
		layers:   workloads.InceptionV3Fig7(),
		shapes:   fig7Shapes("maxpool", "avgpool"),
		rate:     15,
		limit:    100 * time.Millisecond,
		queue:    64,
		maxBatch: 8,
	},
	{
		name:     "overload-fig7-max",
		why:      "Fig. 7 layers, maxpool only, 400 rps open loop against a 16-deep queue and a 2 ms SLO: admission, shedding, queueing and batching set goodput",
		layers:   workloads.InceptionV3Fig7(),
		shapes:   fig7Shapes("maxpool"),
		rate:     400,
		limit:    time.Second,
		refusals: true,
		queue:    16,
		maxBatch: 8,
		slo:      2 * time.Millisecond,
	},
	{
		name:     "cold-tableI",
		why:      "all 13 Table I layers x max/avg x im2col/standard, one closed-loop client, fresh fleet per pass: the only plan-cache misses, strict lint and first replays",
		layers:   workloads.TableI,
		shapes:   tableIShapes(),
		limit:    500 * time.Millisecond,
		queue:    64,
		maxBatch: 8,
	},
	{
		name:     "chaos-fig7",
		why:      "steady-fig7 traffic on the resilient executor with fixed 5% faults: every request retries a tile, a third degrade one; the benchmark's only use of chip.Resilience.Enabled, slated for removal",
		layers:   workloads.InceptionV3Fig7(),
		shapes:   fig7Shapes("maxpool", "avgpool"),
		rate:     15,
		limit:    250 * time.Millisecond,
		chaos:    true,
		queue:    64,
		maxBatch: 8,
	},
}

func workloadByName(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// config is the fleet configuration of one fleet of the workload; reg
// receives every instrument of that fleet.
func (w *workload) config(reg *obs.Registry) serve.Config {
	cfg := serve.Config{
		Chips:      2,
		QueueLimit: w.queue,
		MaxBatch:   w.maxBatch,
		SLO:        w.slo,
		Metrics:    reg,
	}
	if w.slo > 0 {
		cfg.CyclesPerSecond = 1e8
	}
	if w.chaos {
		cfg.Resilience = chaosResilience(reg)
		cfg.DegradeOnFailure = true
	}
	return cfg
}

// inputs holds a run's seeded payload for every layer and the
// golden-model output for every (kernel, layer) the run can request,
// computed before any clock starts. One payload per layer keeps that
// precompute (the golden model takes ~150 ms on a 147x147 layer) and the
// reference outputs small however many requests a run offers; request
// cost does not depend on the values.
type inputs struct {
	payload []*tensor.Tensor            // by layer
	want    map[string][]*tensor.Tensor // kernel -> by layer
}

func newInputs(w *workload, rng *rand.Rand) *inputs {
	in := &inputs{want: map[string][]*tensor.Tensor{}}
	for _, l := range w.layers {
		in.payload = append(in.payload, l.Input(rng))
	}
	for _, sh := range w.shapes {
		if in.want[sh.kernel] == nil {
			in.want[sh.kernel] = make([]*tensor.Tensor, len(w.layers))
		}
	}
	// The references are independent: compute them on every CPU.
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for kernel, outs := range in.want {
		for li, l := range w.layers {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				outs[li] = refForward(kernel, in.payload[li], l)
				<-sem
			}()
		}
	}
	wg.Wait()
	return in
}

func refForward(kernel string, x *tensor.Tensor, l workloads.CNNLayer) *tensor.Tensor {
	if kernel == "avgpool" {
		return ref.AvgPoolForward(x, l.Params())
	}
	return ref.MaxPoolForward(x, l.Params())
}

// request is one scheduled request: what to send and, in an open loop,
// when it is due relative to the start of the timed window.
type request struct {
	shape int
	class serve.Class
	due   time.Duration
}

func (w *workload) request(in *inputs, r request) serve.Request {
	sh := w.shapes[r.shape]
	return serve.Request{
		Kernel:  sh.kernel,
		Variant: sh.variant,
		Params:  w.layers[sh.layer].Params(),
		Input:   in.payload[sh.layer],
		Class:   r.class,
	}
}

// mix returns n requests whose (shape, class) pairs come in balanced
// blocks: every block holds each pair once, in seeded order. Each run of
// a workload therefore offers the same composition, and the seed moves
// only order, arrival times and payload values.
func (w *workload) mix(rng *rand.Rand, n int) []request {
	var pairs []request
	for si := range w.shapes {
		for c := serve.ClassBatch; c <= serve.ClassInteractive; c++ {
			pairs = append(pairs, request{shape: si, class: c})
		}
	}
	out := make([]request, 0, n)
	for len(out) < n {
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for _, p := range pairs {
			if len(out) == n {
				break
			}
			out = append(out, p)
		}
	}
	return out
}

// openSchedule returns the requests of an open-loop window: rate*window
// arrivals at uniform random times in [0, window), sorted — a Poisson
// process conditioned on its count, so every seed offers the same load.
func (w *workload) openSchedule(rng *rand.Rand, window time.Duration) []request {
	n := int(w.rate*window.Seconds() + 0.5)
	if n < 1 {
		n = 1
	}
	reqs := w.mix(rng, n)
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	for i := range reqs {
		reqs[i].due = dues[i]
	}
	return reqs
}

// pass returns one closed-loop pass: every shape once, in seeded order.
// Classes only steer shedding and eviction, which one client never
// triggers.
func (w *workload) pass(rng *rand.Rand) []request {
	out := make([]request, len(w.shapes))
	for i, si := range rng.Perm(len(w.shapes)) {
		out[i] = request{shape: si, class: serve.ClassStandard}
	}
	return out
}
