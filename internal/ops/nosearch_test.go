package ops

import (
	"strings"
	"testing"

	"davinci/internal/isa"
	"davinci/internal/obs"
	"davinci/internal/trace"
)

// TestConvAutoScheduleNoSearch pins the degenerate-search contract on
// the Cube-unit convolution planners: compiling them under an
// AutoSchedule spec must not silently downgrade to the fixed lowering —
// the plan carries an AutoSchedReport with NoSearch set, zero
// candidates, an explicit per-kernel reason, and a summary that says
// sched_candidates=0, and the plan cache turns that into a
// sched_nosearch count next to a zero-valued sched_candidates counter.
func TestConvAutoScheduleNoSearch(t *testing.T) {
	p := isa.ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	spec := Spec{AutoSchedule: true}
	for _, k := range Kernels() {
		if k.Fixed == "" {
			continue
		}
		t.Run(k.Program, func(t *testing.T) {
			r := obs.NewRegistry()
			c := NewPlanCacheOn(r)
			pl, err := c.Plan(trace.Ctx{}, k, spec, k.Dims(p, 16, 16))
			if err != nil {
				t.Fatal(err)
			}
			a := pl.Auto
			if a == nil {
				t.Fatal("AutoSchedule compile attached no AutoSchedReport")
			}
			if !a.NoSearch {
				t.Fatalf("report = %+v, want NoSearch", a)
			}
			if a.Considered != 0 {
				t.Fatalf("Considered = %d, want 0", a.Considered)
			}
			if a.Kernel != k.Program || !strings.Contains(a.Rejected, k.Program+" exposes no searchable schedule axes") {
				t.Fatalf("Rejected = %q, want an explicit no-axes reason", a.Rejected)
			}
			if s := a.Summary(); !strings.Contains(s, "sched_candidates=0") {
				t.Fatalf("Summary() = %q, want sched_candidates=0", s)
			}
			snap := r.Snapshot()
			if v, ok := snap.CounterValue("sched_nosearch"); !ok || v != 1 {
				t.Fatalf("sched_nosearch = %d (present=%v), want 1", v, ok)
			}
			if v, ok := snap.CounterValue("sched_candidates"); !ok || v != 0 {
				t.Fatalf("sched_candidates = %d (present=%v), want a recorded 0", v, ok)
			}
		})
	}
}
