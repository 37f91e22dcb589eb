package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestRegistryLabelsCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs", "impl", "im2col", "experiment", "fig7a")
	b := r.Counter("reqs", "experiment", "fig7a", "impl", "im2col")
	if a != b {
		t.Fatal("label order created two instruments for one identity")
	}
	c := r.Counter("reqs", "experiment", "fig7a", "impl", "standard")
	if a == c {
		t.Fatal("different label values aliased")
	}
	a.Add(3)
	c.Inc()
	snap := r.Snapshot()
	if len(snap.Counters) != 2 {
		t.Fatalf("snapshot has %d counters, want 2", len(snap.Counters))
	}
	if snap.Counters[0].Value != 3 || snap.Counters[0].Labels["impl"] != "im2col" {
		t.Errorf("sorted first counter = %+v", snap.Counters[0])
	}
}

func TestRegistryOddLabelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd label list did not panic")
		}
	}()
	NewRegistry().Counter("x", "key-without-value")
}

func TestGaugeAndHistogram(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if g.Load() != 5 {
		t.Errorf("gauge = %d", g.Load())
	}
	h := r.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 1000, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 6022 {
		t.Errorf("count %d sum %d", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	hv := snap.Histograms[0]
	// value <= bound buckets: {1,10} <= 10; {11} <= 100; {1000} <= 1000;
	// {5000} overflows.
	want := []int64{2, 1, 1, 1}
	if len(hv.Counts) != len(want) {
		t.Fatalf("bucket counts %v", hv.Counts)
	}
	for i, w := range want {
		if hv.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, hv.Counts[i], w)
		}
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds did not panic")
		}
	}()
	NewRegistry().Histogram("bad", []int64{10, 10})
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Snapshot {
		r := NewRegistry()
		r.Counter("b", "x", "2").Add(2)
		r.Counter("b", "x", "1").Add(1)
		r.Counter("a").Add(9)
		r.Gauge("g", "k", "v").Set(4)
		r.Histogram("h", []int64{8}).Observe(3)
		return r.Snapshot()
	}
	var first bytes.Buffer
	if err := build().WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		var again bytes.Buffer
		if err := build().WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("snapshot JSON not deterministic:\n%s\nvs\n%s", first.String(), again.String())
		}
	}
	var decoded Snapshot
	if err := json.Unmarshal(first.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if decoded.Counters[0].Name != "a" || decoded.Counters[1].Labels["x"] != "1" {
		t.Errorf("sort order: %+v", decoded.Counters)
	}
}

// TestRegistryConcurrent hammers registration and updates from many
// goroutines; run under -race this is the registry's thread-safety proof
// (the chip updates these from every worker of its host pool).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("cycles", nil)
			for i := 0; i < iters; i++ {
				c.Inc()
				r.Counter("shared").Add(1) // re-registration path
				h.Observe(int64(i))
				r.Gauge("last").Set(int64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() { // concurrent snapshots must be safe too
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("shared").Load(); got != workers*iters*2 {
		t.Errorf("shared counter = %d, want %d", got, workers*iters*2)
	}
	if got := r.Histogram("cycles", nil).Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
}
