package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/obs"
	"davinci/internal/ops"
	"davinci/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite golden files")

// smallKernelTrace schedules the small maxpool_fwd/im2col kernel (8x8,
// kernel 3, stride 2) on a traced core. Plan emission and the cost model
// are deterministic, so the trace — and its JSON export — is too.
func smallKernelTrace(t *testing.T) *aicore.Trace {
	t.Helper()
	p := isa.ConvParams{Ih: 8, Iw: 8, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	pl, err := ops.Compile("maxpool_fwd/im2col", ops.Spec{}, ops.Dims{P: p})
	if err != nil {
		t.Fatal(err)
	}
	core := aicore.New(buffer.Config{}, nil)
	core.Trace = &aicore.Trace{}
	in := tensor.New(1, 1, p.Ih, p.Iw, tensor.C0)
	for i := 0; i < in.Len(); i++ {
		// Deterministic fill; data values don't affect timing anyway.
		in.SetFlat(i, fp16.FromFloat64(float64(i%97)))
	}
	if _, _, err := pl.Run(core, in); err != nil {
		t.Fatal(err)
	}
	return core.Trace
}

// TestChromeTraceGolden pins the exported trace of one small kernel
// byte-for-byte. Regenerate with: go test ./internal/obs -run Golden -update
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, smallKernelTrace(t)); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "maxpool_im2col_8x8.trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exported trace differs from golden %s (run with -update after intentional schedule changes)", golden)
	}
}

func TestChromeTraceStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, smallKernelTrace(t)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Pid  *int   `json:"pid"`
			Tid  int    `json:"tid"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	counts := map[string]int{}
	stalls := 0
	for _, e := range doc.TraceEvents {
		counts[e.Ph]++
		if e.Pid == nil {
			t.Fatalf("event %q missing pid", e.Name)
		}
		if e.Ph == "X" {
			if e.Ts < 0 || e.Dur < 0 {
				t.Errorf("slice %q has ts %d dur %d", e.Name, e.Ts, e.Dur)
			}
			if e.Cat == "stall" {
				stalls++
			}
		}
	}
	if counts["M"] == 0 || counts["X"] == 0 {
		t.Errorf("event phases %v: want metadata and slices", counts)
	}
	if stalls == 0 {
		t.Error("no stall slices in a kernel with cross-pipe dependencies")
	}
}

// TestChromeTraceFlagFlows checks that set/wait flag pairs export as
// paired flow events ("s" at the setter, "f" at the waiter).
func TestChromeTraceFlagFlows(t *testing.T) {
	src, dst := int(isa.PipeMTE2), int(isa.PipeVector)
	tr := &aicore.Trace{Entries: []aicore.TraceEntry{
		{Idx: 0, Pipe: isa.PipeMTE2, Start: 0, End: 40, Text: "copy",
			Stall: aicore.Stall{Cause: aicore.StallNone, Producer: -1}},
		{Idx: 1, Pipe: isa.PipeMTE2, Start: 40, End: 41, Text: "set_flag",
			Kind: aicore.KindSetFlag, Flag: [3]int{src, dst, 0},
			Stall: aicore.Stall{Cause: aicore.StallPipeBusy, Producer: -1}},
		{Idx: 2, Pipe: isa.PipeVector, Start: 41, End: 42, Text: "wait_flag",
			Kind: aicore.KindWaitFlag, Flag: [3]int{src, dst, 0},
			Stall: aicore.Stall{Cause: aicore.StallFlagWait, Cycles: 41, Producer: 1}},
		{Idx: 3, Pipe: isa.PipeVector, Start: 42, End: 50, Text: "vmax",
			Stall: aicore.Stall{Cause: aicore.StallPipeBusy, Producer: -1}},
	}}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
			ID int    `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var starts, finishes []int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "s":
			starts = append(starts, e.ID)
		case "f":
			finishes = append(finishes, e.ID)
		}
	}
	if len(starts) != 1 || len(finishes) != 1 || starts[0] != finishes[0] {
		t.Errorf("flow events: starts %v finishes %v, want one matched pair", starts, finishes)
	}
}
