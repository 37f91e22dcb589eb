// Package bench regenerates every table and figure of the paper's
// evaluation (§VI) on the simulated chip. Each runner returns a Table
// whose rows and columns mirror what the paper reports: cycle counts per
// implementation per input, plus the speedup of the accelerated variant.
//
// The simulator's timing is deterministic for a given shape (cycle counts
// do not depend on data values), so the paper's ten-repetition 95%
// confidence intervals collapse to a point; runners still support
// repetitions to demonstrate that property.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"davinci/internal/chip"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/obs"
	"davinci/internal/ops"
	"davinci/internal/ref"
	"davinci/internal/tensor"
	"davinci/internal/trace"
	"davinci/internal/workloads"
)

// Table is one regenerated experiment.
type Table struct {
	Experiment string
	Note       string
	Columns    []string
	Rows       []Row
	// Plans snapshots the device's plan cache after the experiment:
	// programs compiled vs cache hits across every measured run.
	Plans ops.CacheStats
}

// Row is one line of an experiment: a label (input size) and one value per
// column.
type Row struct {
	Label  string
	Values []float64
}

// FormatCSV renders the table as comma-separated values (one header row).
func (t *Table) FormatCSV(w io.Writer) {
	fmt.Fprintf(w, "input")
	for _, c := range t.Columns {
		fmt.Fprintf(w, ",%s", strings.ReplaceAll(c, ",", ";"))
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%s", strings.ReplaceAll(r.Label, ",", ";"))
		for _, v := range r.Values {
			fmt.Fprintf(w, ",%g", v)
		}
		fmt.Fprintln(w)
	}
}

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Experiment)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("input")
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
	}
	cells := func(r Row) []string {
		out := []string{r.Label}
		for i, v := range r.Values {
			switch {
			case strings.Contains(t.Columns[i], "speedup"):
				out = append(out, fmt.Sprintf("%.2fx", v))
			case strings.Contains(t.Columns[i], "repeat"), strings.Contains(t.Columns[i], "occ"):
				out = append(out, fmt.Sprintf("%.1f", v))
			default:
				out = append(out, fmt.Sprintf("%.0f", v))
			}
		}
		return out
	}
	for i, c := range t.Columns {
		if len(c) > widths[i+1] {
			widths[i+1] = len(c)
		}
	}
	for _, r := range t.Rows {
		for i, c := range cells(r) {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	head := []string{"input"}
	head = append(head, t.Columns...)
	for i, h := range head {
		fmt.Fprintf(w, "%-*s  ", widths[i], h)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		for i, c := range cells(r) {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	if t.Plans != (ops.CacheStats{}) {
		fmt.Fprintf(w, "%s\n", t.Plans)
	}
	fmt.Fprintln(w)
}

// Options configures a run.
type Options struct {
	// Chip configures the simulated device (zero values = Ascend 910).
	Chip chip.Config
	// Seed feeds the workload generator.
	Seed int64
	// Reps repeats each measurement (default 1); the simulator is
	// deterministic, so this demonstrates zero-width confidence intervals.
	Reps int
	// Metrics, when non-nil, collects every measured cell as a
	// bench_cycles gauge (labeled experiment/input/impl) plus the chip
	// and plan-cache counters of every device the experiments build —
	// the payload of davinci-bench -metrics.
	Metrics *obs.Registry
	// Trace is the span context each experiment run nests under: Run
	// opens a bench_experiment span per experiment and the devices the
	// experiments build thread it through chip.Config.Trace, so one
	// trace covers compile, search and tile execution.
	// The zero value disables tracing.
	Trace trace.Ctx
}

func (o Options) reps() int {
	if o.Reps < 1 {
		return 1
	}
	return o.Reps
}

// device builds the simulated chip for one experiment, registering its
// counters on the run's shared metrics registry when one is set.
func (o Options) device(cfg chip.Config) *chip.Chip {
	if cfg.Metrics == nil {
		cfg.Metrics = o.Metrics
	}
	if !cfg.Trace.Enabled() {
		cfg.Trace = o.Trace
	}
	return chip.New(cfg)
}

// record publishes one measured cell into the run's metrics registry.
func (o Options) record(experiment, input, impl string, cycles float64) {
	if o.Metrics == nil {
		return
	}
	o.Metrics.Gauge("bench_cycles", "experiment", experiment, "input", input, "impl", impl).Set(int64(cycles))
}

// measure runs fn Reps times and checks determinism, returning the cycle
// count.
func measure(o Options, fn func() (int64, error)) (float64, error) {
	var first int64
	for r := 0; r < o.reps(); r++ {
		c, err := fn()
		if err != nil {
			return 0, err
		}
		if r == 0 {
			first = c
		} else if c != first {
			return 0, fmt.Errorf("bench: non-deterministic cycle count (%d vs %d)", c, first)
		}
	}
	return float64(first), nil
}

// Table1 renders Table I (Maxpool input sizes in CNNs).
func Table1() *Table {
	t := &Table{
		Experiment: "Table I: Maxpool input sizes in CNNs (HWC)",
		Note:       "kernel (3,3), stride (2,2); VGG16 uses kernel and stride (2,2)",
		Columns:    []string{"Input 1", "Input 2", "Input 3", "Input 4"},
	}
	byNet := map[string][]string{}
	var order []string
	for _, l := range workloads.TableI {
		if _, seen := byNet[l.Network]; !seen {
			order = append(order, l.Network)
		}
		byNet[l.Network] = append(byNet[l.Network], fmt.Sprintf("%d,%d,%d", l.H, l.W, l.C))
	}
	for _, net := range order {
		row := Row{Label: net}
		cells := byNet[net]
		for i := 0; i < 4; i++ {
			if i < len(cells) {
				row.Values = append(row.Values, 0)
			}
		}
		// Table I is textual; encode the sizes in the label column.
		row.Label = fmt.Sprintf("%-12s %s", net, strings.Join(cells, "  "))
		row.Values = nil
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig7a regenerates Fig. 7a: Maxpool forward, standard vs Im2col, on the
// three InceptionV3 inputs.
func Fig7a(o Options) (*Table, error) {
	t := &Table{
		Experiment: "Fig. 7a: Maxpool forward (cycles)",
		Note:       "InceptionV3 inputs, kernel (3,3), stride (2,2), no padding; 32 AI Cores",
		Columns:    []string{"standard", "im2col", "im2col speedup"},
	}
	dev := o.device(o.Chip)
	rng := rand.New(rand.NewSource(o.Seed))
	for _, layer := range workloads.InceptionV3Fig7() {
		in := layer.Input(rng)
		p := layer.Params()
		label := fmt.Sprintf("%d,%d,%d", layer.H, layer.W, layer.C)
		var vals []float64
		for _, variant := range []string{"standard", "im2col"} {
			c, err := measure(o, func() (int64, error) {
				_, st, err := dev.MaxPoolForward(variant, in, p)
				if err != nil {
					return 0, err
				}
				return st.Cycles, nil
			})
			if err != nil {
				return nil, err
			}
			o.record("fig7a", label, variant, c)
			vals = append(vals, c)
		}
		vals = append(vals, vals[0]/vals[1])
		t.Rows = append(t.Rows, Row{Label: label, Values: vals})
	}
	t.Plans = dev.PlanStats()
	return t, nil
}

// Fig7b regenerates Fig. 7b: Maxpool forward with the argmax mask.
func Fig7b(o Options) (*Table, error) {
	t := &Table{
		Experiment: "Fig. 7b: Maxpool forward + argmax mask (cycles)",
		Note:       "InceptionV3 inputs; the mask is saved in the Im2Col shape for training",
		Columns:    []string{"standard", "im2col", "im2col speedup"},
	}
	dev := o.device(o.Chip)
	rng := rand.New(rand.NewSource(o.Seed))
	for _, layer := range workloads.InceptionV3Fig7() {
		in := layer.Input(rng)
		p := layer.Params()
		label := fmt.Sprintf("%d,%d,%d", layer.H, layer.W, layer.C)
		var vals []float64
		for _, variant := range []string{"standard", "im2col"} {
			c, err := measure(o, func() (int64, error) {
				_, _, st, err := dev.MaxPoolForwardArgmax(variant, in, p)
				if err != nil {
					return 0, err
				}
				return st.Cycles, nil
			})
			if err != nil {
				return nil, err
			}
			o.record("fig7b", label, variant, c)
			vals = append(vals, c)
		}
		vals = append(vals, vals[0]/vals[1])
		t.Rows = append(t.Rows, Row{Label: label, Values: vals})
	}
	t.Plans = dev.PlanStats()
	return t, nil
}

// Fig7c regenerates Fig. 7c: Maxpool backward, standard vs Col2im.
func Fig7c(o Options) (*Table, error) {
	t := &Table{
		Experiment: "Fig. 7c: Maxpool backward (cycles)",
		Note:       "InceptionV3 inputs; merge step via 16-lane vadd vs Col2Im instructions",
		Columns:    []string{"standard", "col2im", "col2im speedup"},
	}
	dev := o.device(o.Chip)
	rng := rand.New(rand.NewSource(o.Seed))
	for _, layer := range workloads.InceptionV3Fig7() {
		in := layer.Input(rng)
		p := layer.Params()
		mask := ref.ArgmaxMask(in, p)
		oh, ow := p.OutDims()
		grad := tensor.New(1, layer.C1(), oh, ow, tensor.C0)
		for i := 0; i < grad.Len(); i++ {
			grad.SetFlat(i, fp16.FromFloat64(rng.Float64()))
		}
		label := fmt.Sprintf("%d,%d,%d", layer.H, layer.W, layer.C)
		var vals []float64
		for _, variant := range []string{"standard", "col2im"} {
			c, err := measure(o, func() (int64, error) {
				_, st, err := dev.MaxPoolBackward(variant, mask, grad, p)
				if err != nil {
					return 0, err
				}
				return st.Cycles, nil
			})
			if err != nil {
				return nil, err
			}
			o.record("fig7c", label, variant, c)
			vals = append(vals, c)
		}
		vals = append(vals, vals[0]/vals[1])
		t.Rows = append(t.Rows, Row{Label: label, Values: vals})
	}
	t.Plans = dev.PlanStats()
	return t, nil
}

// Fig8 regenerates one panel of Fig. 8: the forward Maxpool
// implementations swept over square input sizes at the given stride, on a
// single AI Core (N = C1 = 1), kernel (3,3), no padding. The X-Y split
// variant is included for stride (2,2), as in the paper.
func Fig8(stride int, o Options) (*Table, error) {
	variants := []string{"standard", "im2col", "expansion"}
	if stride == 2 {
		variants = append(variants, "xysplit")
	}
	t := &Table{
		Experiment: fmt.Sprintf("Fig. 8: Maxpool forward, stride (%d,%d) (cycles)", stride, stride),
		Note:       "single AI Core, kernel (3,3), input height/width stepped by 2 up to the tiling threshold",
		Columns:    variants,
	}
	cfg := o.Chip
	cfg.Cores = 1
	dev := o.device(cfg)
	rng := rand.New(rand.NewSource(o.Seed))
	for _, hw := range workloads.Fig8Sizes(3, stride, o.Chip.Buffers.UBSize) {
		p := isa.ConvParams{Ih: hw, Iw: hw, Kh: 3, Kw: 3, Sh: stride, Sw: stride}
		in := tensor.New(1, 1, hw, hw, tensor.C0)
		in.FillRandom(rng, 8)
		label := fmt.Sprintf("%dx%d", hw, hw)
		var vals []float64
		for _, variant := range variants {
			c, err := measure(o, func() (int64, error) {
				_, st, err := dev.MaxPoolForward(variant, in, p)
				if err != nil {
					return 0, err
				}
				return st.Cycles, nil
			})
			if err != nil {
				return nil, err
			}
			o.record(fmt.Sprintf("fig8_s%d", stride), label, variant, c)
			vals = append(vals, c)
		}
		t.Rows = append(t.Rows, Row{Label: label, Values: vals})
	}
	t.Plans = dev.PlanStats()
	return t, nil
}

// All runs every experiment in paper order.
func All(o Options) ([]*Table, error) {
	var tables []*Table
	tables = append(tables, Table1())
	for _, fn := range []func(Options) (*Table, error){Fig7a, Fig7b, Fig7c} {
		t, err := fn(o)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	for _, stride := range []int{1, 2, 3} {
		t, err := Fig8(stride, o)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	t, err := PerfTable(o)
	if err != nil {
		return nil, err
	}
	tables = append(tables, t)
	return tables, nil
}

// AvgPool runs the Avgpool extension experiment (not a paper figure): the
// three forward implementations of §V-C plus the Cube-unit mapping the
// paper proposes as future work (§VIII, following Suita et al.), on the
// InceptionV3 inputs.
func AvgPool(o Options) (*Table, error) {
	t := &Table{
		Experiment: "Extension: Avgpool forward (cycles)",
		Note:       "standard / im2col vector variants (§V-C) and the Cube-unit mapping (§VIII future work)",
		Columns:    []string{"standard", "im2col", "cube", "im2col speedup"},
	}
	dev := o.device(o.Chip)
	rng := rand.New(rand.NewSource(o.Seed))
	for _, layer := range workloads.InceptionV3Fig7() {
		in := layer.Input(rng)
		p := layer.Params()
		label := fmt.Sprintf("%d,%d,%d", layer.H, layer.W, layer.C)
		var vals []float64
		for _, variant := range []string{"standard", "im2col", "cube"} {
			c, err := measure(o, func() (int64, error) {
				_, st, err := dev.AvgPoolForward(variant, in, p)
				if err != nil {
					return 0, err
				}
				return st.Cycles, nil
			})
			if err != nil {
				return nil, err
			}
			o.record("avgpool", label, variant, c)
			vals = append(vals, c)
		}
		vals = append(vals, vals[0]/vals[1])
		t.Rows = append(t.Rows, Row{Label: label, Values: vals})
	}
	t.Plans = dev.PlanStats()
	return t, nil
}
