package bench

import (
	"fmt"
	"strings"

	"davinci/internal/ops"
	"davinci/internal/trace"
	"davinci/internal/workloads"
)

// PerfTable reports the static performance analysis (internal/lint/perf)
// of the Fig. 7 kernel pairs on the three InceptionV3 layers: cycle
// bounds, mean repeat length, and vector lane occupancy. No simulation
// runs — every number comes from the compiled instruction stream — so
// the table isolates the paper's utilization argument: the direct
// lowerings issue many short-repeat, 16-lane instructions (low
// occupancy), while the Im2Col/Col2Im forms issue few long-repeat,
// full-width ones.
func PerfTable(o Options) (*Table, error) {
	t := &Table{
		Experiment: "perf: static utilization, Fig. 7 InceptionV3 layers",
		Note:       "static bounds and utilization from the compiled programs (no simulation)",
		Columns:    []string{"instrs", "crit path", "busy bound", "mean repeat", "lane occ %", "warnings"},
	}
	// The Fig. 7 Maxpool kernels, standard lowerings against their
	// Im2col/Col2im counterparts, under their historical row labels.
	fig7 := map[string]bool{"maxpool_fwd": true, "maxpool_fwd_argmax": true, "maxpool_bwd": true}
	label := strings.NewReplacer("_fwd_argmax", "-argmax", "_", "-")
	spec := ops.Spec{Buffers: o.Chip.Buffers}
	for _, l := range workloads.InceptionV3Fig7() {
		p := l.Params()
		for _, k := range ops.Kernels() {
			if !fig7[k.Family] || k.Mode == "expansion" || k.Mode == "xysplit" {
				continue
			}
			name := label.Replace(k.Name)
			pl, err := k.Compile(trace.Ctx{}, spec, ops.Dims{P: p})
			if err != nil {
				return nil, fmt.Errorf("perf: %s %dx%d: %w", name, l.H, l.W, err)
			}
			r := pl.Perf
			meanRepeat := 0.0
			if r.Vector.Instrs > 0 {
				meanRepeat = float64(r.Vector.Repeats) / float64(r.Vector.Instrs)
			}
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("%s %dx%dx%d", name, l.H, l.W, l.C),
				Values: []float64{
					float64(r.Instrs),
					float64(r.CritPath),
					float64(r.BusyBound),
					meanRepeat,
					100 * r.Vector.MeanOccupancy,
					float64(len(r.Diags)),
				},
			})
		}
	}
	return t, nil
}
