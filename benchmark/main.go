// Command benchmark is the repository's end-to-end benchmark. It offers
// four named workloads to the internal/serve fleet, checks every output
// against the golden model, and reports end-to-end metrics (a measured
// run) or per-layer metrics (a traced run).
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh -workload steady-fig7 -seed 1 -seconds 20 -trace 0
//	bash benchmark/run.sh -seed 1                 # every workload, one child process each
//	bash benchmark/run.sh compare <base dir> <candidate dir>
//
// run.sh builds the command into .bench_build/ and runs it; `go run .`
// inside benchmark/ works too. Each run writes a results file under -out
// and prints, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics. See README.md for the workloads, the
// metrics and their bounds.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"davinci/internal/trace"
)

// defaultSeconds is the timed window of one run; BENCHMARK.json's
// run_seconds matches it.
const defaultSeconds = 20

// A measured run sets up its fleet at least setupReps times and until
// setupTime has passed, and reports the median as setup_s: a set-up of
// overload-fig7-max takes under 0.1 s, and a median of three of those
// spread by more than setup_s's bound between runs.
const (
	setupReps = 3
	setupTime = 2 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	seed    int64
	seconds float64
	traced  bool
	out     string
	// setups and setupTime are the least number and time of set-ups in a
	// measured run.
	setups    int
	setupTime time.Duration
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own child process")
	seed := fs.Int64("seed", 1, "seed for arrivals, request mix, classes and payloads")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed window in seconds")
	traceArg := fs.Int("trace", 0, "0: measured run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory the results files are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceArg != 0 && *traceArg != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: want -trace 0 or 1, a positive -seconds and no positional arguments")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traceArg == 1, out: *out, setups: setupReps, setupTime: setupTime}
	if *name == "" {
		return runAll(args, stdout, stderr)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	res.print(stdout)
	if err := res.write(o.out); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res.line()); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// result is one run of one workload, as written to its results file.
type result struct {
	Provenance provenance `json:"provenance"`
	Workload   string     `json:"workload"`
	Traced     bool       `json:"traced"`
	Seconds    float64    `json:"seconds"`
	// Offered counts requests offered in the timed window(s); Succeeded
	// those answered correctly; Failed those with an outcome the workload
	// does not allow (see summary.failed).
	Offered   int            `json:"offered"`
	Succeeded int            `json:"succeeded"`
	Failed    int            `json:"failed"`
	Outcomes  map[string]int `json:"outcomes"`
	// LatencySamples is the number of latencies behind the percentiles,
	// P95Beyond how many lie above latency_p95_ms.
	LatencySamples int       `json:"latency_samples"`
	P95Beyond      int       `json:"p95_beyond"`
	SetupRuns      []float64 `json:"setup_runs_s,omitempty"`
	// HostSpeed is the probe's speed over the run; Measured holds the
	// end-to-end metrics before they are scaled by it.
	HostSpeed   float64                `json:"host_speed"`
	Measured    map[string]float64     `json:"measured,omitempty"`
	GenLagP99Ms float64                `json:"gen_lag_ms_p99"`
	Metrics     map[string]metricValue `json:"metrics"`
	Correct     bool                   `json:"correct"`
	Errors      []string               `json:"errors,omitempty"`

	spans    []trace.Span
	requests []outcome
	start    time.Time // traced window start, for the JSONL request records
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance records what produced a results file.
type provenance struct {
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
	Time       string `json:"time"`
}

func newProvenance(seed int64) provenance {
	p := provenance{
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

func runWorkload(w *workload, o options) (*result, error) {
	rng := rand.New(rand.NewSource(o.seed))
	in := newInputs(w, rng)
	d := time.Duration(o.seconds * float64(time.Second))
	res := &result{Provenance: newProvenance(o.seed), Workload: w.name, Traced: o.traced, Seconds: o.seconds}
	var win *window
	var err error
	if o.traced {
		win, err = res.traced(w, in, rng, d)
	} else {
		win, err = res.measured(w, in, rng, d, o)
	}
	if err != nil {
		return nil, err
	}
	s := summarize(win)
	res.Offered, res.Succeeded, res.Failed = s.offered, s.good, s.failed(w)
	res.Outcomes = s.outcomes
	res.LatencySamples = len(s.latencies)
	_, res.P95Beyond = percentile(s.latencies, 0.95)
	var lag []float64
	for i := range win.recs {
		lag = append(lag, ms(win.recs[i].start-win.recs[i].due))
	}
	res.GenLagP99Ms, _ = percentile(sorted(lag), 0.99)
	res.Errors = win.errs
	if res.Failed > 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("%d request(s) failed: outcomes %v", res.Failed, s.outcomes))
	}
	res.Correct = len(res.Errors) == 0
	return res, nil
}

// measured is the end-to-end run: the fleet set up o.setups times or
// more, then one window, with the speed probe running throughout.
func (res *result) measured(w *workload, in *inputs, rng *rand.Rand, d time.Duration, o options) (*window, error) {
	probe := startSpeedProbe()
	var f *fleet
	for t := time.Now(); len(res.SetupRuns) < o.setups || time.Since(t) < o.setupTime; {
		if f != nil {
			f.s.Close()
		}
		t0 := time.Now()
		var err error
		if f, err = setUp(w, in, trace.Ctx{}); err != nil {
			probe.finish()
			return nil, err
		}
		res.SetupRuns = append(res.SetupRuns, time.Since(t0).Seconds())
	}
	win := measure(w, f, in, rng, d, trace.Ctx{})
	res.HostSpeed = probe.finish()
	if f != nil {
		f.s.Close()
	}
	res.Measured = endToEndValues(w, win, res.SetupRuns, 1)
	res.Metrics = valuesOf(endToEnd, endToEndValues(w, win, res.SetupRuns, res.HostSpeed))
	return win, nil
}

// setUp builds a fleet and warms every shape on it: the state an
// open-loop window starts from. cold-tableI's window builds a fresh fleet
// per pass, so its set-up only warms the process and closes the fleet.
func setUp(w *workload, in *inputs, tc trace.Ctx) (*fleet, error) {
	f := newFleet(w, tc)
	if err := warmup(f, w, in); err != nil || w.rate == 0 {
		f.s.Close()
		return nil, err
	}
	return f, nil
}

// measure runs the workload's timed window on f (open loop) or on fresh
// fleets (closed loop).
func measure(w *workload, f *fleet, in *inputs, rng *rand.Rand, d time.Duration, tc trace.Ctx) *window {
	if w.rate > 0 {
		return runOpen(f, w, in, w.openSchedule(rng, d))
	}
	return runClosed(w, in, rng, d, tc)
}

// traced is the per-layer run: an untraced window and a traced one of
// half the length each, then the single-layer probes.
func (res *result) traced(w *workload, in *inputs, rng *rand.Rand, d time.Duration) (*window, error) {
	half := d / 2
	f, err := setUp(w, in, trace.Ctx{})
	if err != nil {
		return nil, err
	}
	stop := goroutinePeak()
	plain := measure(w, f, in, rng, half, trace.Ctx{})
	peakG := stop()
	if f != nil {
		f.s.Close()
	}

	tr := trace.New()
	tr.SetMaxSpans(spanCap(w, half))
	root := tr.Root().StartSpan("bench_experiment", "experiment", w.name)
	if f, err = setUp(w, in, root.Ctx()); err != nil {
		return nil, err
	}
	tw := measure(w, f, in, rng, half, root.Ctx())
	if f != nil {
		f.s.Close()
	}
	root.End()
	res.spans = tr.Finished()
	res.requests = tw.recs
	res.start = tw.start
	requests := 0
	for i := range res.spans {
		if res.spans[i].Name == "serve_request" {
			requests++
		}
	}
	v := layerValues(w, plain, tw, peakG, res.spans, tr.Dropped(), requests)
	pv, err := probes(rng)
	if err != nil {
		return nil, err
	}
	for k, x := range pv {
		v[k] = x
	}
	res.Metrics = valuesOf(perLayer, v)
	plain.errs = append(plain.errs, tw.errs...)
	if tr.Active() != 0 {
		plain.errs = append(plain.errs, fmt.Sprintf("span leak: %d spans still active", tr.Active()))
	}
	return plain, nil
}

// spanCap bounds the spans a traced window can produce, so retention
// never evicts: per request a request, admission and compile span, per
// batch a batch, run and lookup span, and per tile up to three attempts
// or degradations.
func spanCap(w *workload, d time.Duration) int {
	maxTiles := 0
	for _, l := range w.layers {
		maxTiles = max(maxTiles, l.C1())
	}
	n := int(w.rate*d.Seconds()) + 2*len(w.shapes)
	if w.rate == 0 {
		n = len(w.shapes) * (2 + int(d.Seconds()))
	}
	return n * (8 + 3*maxTiles)
}

func valuesOf(defs []metricDef, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, m := range defs {
		out[m.name] = metricValue{Value: v[m.name], Unit: m.unit}
	}
	return out
}

func (res *result) defs() []metricDef {
	if res.Traced {
		return perLayer
	}
	return endToEnd
}

// print writes the run's human-readable report.
func (res *result) print(w io.Writer) {
	mode := "measured"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s %s  seed %d  window %gs  offered %d  correct %d  failed %d  latency samples %d (%d beyond p95)  generator lag p99 %.3f ms\n",
		mode, res.Workload, res.Provenance.Seed, res.Seconds, res.Offered, res.Succeeded, res.Failed,
		res.LatencySamples, res.P95Beyond, res.GenLagP99Ms)
	for _, m := range res.defs() {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	if res.P95Beyond < minBeyond {
		fmt.Fprintf(w, "  note: latency_p95_ms has only %d samples beyond it (want %d); lengthen -seconds\n", res.P95Beyond, minBeyond)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  ERROR: %s\n", e)
	}
}

// line is the last line of standard output.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (res *result) line() line {
	return line{Correct: res.Correct, Attempted: res.Offered, Failed: res.Failed, Metrics: res.Metrics}
}

// write stores the results file and, for a traced run, the JSONL record
// of its spans and per-request phases.
func (res *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if res.Traced {
		t = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", res.Workload, res.Provenance.Seed, t))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !res.Traced {
		return nil
	}
	return res.writeJSONL(base + ".jsonl")
}

// requestRecord is the benchmark's own phase record of one traced
// request, in the same Unix-nanosecond time base as the spans.
type requestRecord struct {
	Kind        string `json:"kind"`
	Shape       string `json:"shape"`
	Class       string `json:"class"`
	DueNS       int64  `json:"due_ns"`
	SubmitNS    int64  `json:"submit_start_ns"`
	SubmittedNS int64  `json:"submit_end_ns"`
	ResolveNS   int64  `json:"resolve_ns"`
	Outcome     string `json:"outcome"`
	Reason      string `json:"reason,omitempty"`
	Correct     bool   `json:"correct"`
}

func (res *result) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	w := workloadByName(res.Workload)
	t0 := res.start.UnixNano()
	for i := range res.spans {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			*trace.Span
		}{"span", &res.spans[i]}); err != nil {
			f.Close()
			return err
		}
	}
	for i := range res.requests {
		o := &res.requests[i]
		sh := w.shapes[o.shape]
		rec := requestRecord{
			Kind:        "request",
			Shape:       fmt.Sprintf("%s/%s/%dx%d", sh.kernel, sh.variant, w.layers[sh.layer].H, w.layers[sh.layer].W),
			Class:       o.class.String(),
			DueNS:       t0 + int64(o.due),
			SubmitNS:    t0 + int64(o.start),
			SubmittedNS: t0 + int64(o.end),
			ResolveNS:   t0 + int64(o.done),
			Outcome:     o.result.String(),
			Reason:      o.reason,
			Correct:     o.good,
		}
		if err := enc.Encode(&rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in its own child process, so peak memory
// and GC state do not leak between workloads, and prints the combined
// result with metric names prefixed by the workload.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	all := line{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range allWorkloads {
		var buf bytes.Buffer
		cmd := exec.Command(self, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var l line
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: no result line (%v, %v)\n", w.name, runErr, err)
			return 1
		}
		all.Correct = all.Correct && l.Correct && runErr == nil
		all.Attempted += l.Attempted
		all.Failed += l.Failed
		for k, v := range l.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	if err := json.NewEncoder(stdout).Encode(all); err != nil || !all.Correct {
		return 1
	}
	return 0
}
