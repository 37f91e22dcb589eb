// The kernel catalogue: every built-in kernel written down once. An entry
// names the kernel, holds its schedule-parameterized lowering, says how a
// chip run tiles each input and assembles each output, gives the shapes
// its inputs must have, and names its internal/ref golden model. The plan
// cache, the chip's run path, the sweeps (internal/kernelcases), the
// command-line tools and the serving layer's admission all read this
// table, so a new execution mode is one new entry.
package ops

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/ref"
	"davinci/internal/tensor"
	"davinci/internal/trace"
)

// Dims are what a kernel is compiled for: the layer parameters and, for
// the Cube convolutions, the logical output and input channel counts
// (zero for the pooling kernels, whose tiles are one C0 slice).
type Dims struct {
	P     isa.ConvParams
	Co, C int
}

// Tiling says how a chip run hands one input to its tiles.
type Tiling int

const (
	// ByNC1 gives each (n, c1) tile its (1, 1, ...) slice: the pooling
	// kernels run one C0 channel slice per core (§V-A).
	ByNC1 Tiling = iota
	// ByN gives each tile one (1, ...) image: the Cube convolutions reduce
	// over every C1 slice on one core.
	ByN
	// Shared gives every tile the whole tensor (convolution weights).
	Shared
)

// tiled returns how many leading dimensions the tiling splits.
func (t Tiling) tiled() int {
	return [...]int{ByNC1: 2, ByN: 1, Shared: 0}[t]
}

// Assembly says how a chip run builds one output from its tiles' results.
type Assembly int

const (
	// PerTile stores each tile's result at the tile's grid position.
	PerTile Assembly = iota
	// BatchSum adds the tiles' results elementwise, in binary16 (a weight
	// gradient summed over the batch).
	BatchSum
)

// Input is one input of a kernel. Shape is the shape one tile receives
// for the given dims: 1 in every dimension the tiling splits, so a whole
// input has the tile grid's extent there.
type Input struct {
	Tiling Tiling
	Shape  func(Dims) []int
}

// Output is one output of a kernel. Shape is one tile's result; a
// PerTile output spans the tile grid in the dimensions where that shape
// is 1, a BatchSum output has the shape itself.
type Output struct {
	Assembly Assembly
	Shape    func(Dims) []int
}

// lowering is a schedule-parameterized planner: it compiles (spec, d)
// under sp, whose zero knobs reproduce the hand-tuned plan.
type lowering func(Spec, Dims, ScheduleParams) (*Plan, error)

// Kernel is one catalogue entry. Entries are shared; treat them as
// read-only.
type Kernel struct {
	// Name is "family/mode" ("maxpool_fwd/im2col") for the pooling
	// kernels and the family alone for the Cube convolutions ("conv2d").
	Name string
	// Program names the compiled program (Plan.Name) and keys the plan
	// cache: Name with "_" for "/", unless the entry sets it.
	Program string
	// Family and Mode split Name. The mode is a schedule axis: every mode
	// of a family has the same inputs and outputs, so the autoscheduler
	// may swap it.
	Family, Mode string
	Inputs       []Input
	Outputs      []Output
	// Golden computes the outputs on the host (internal/ref), from whole
	// tensors or one tile's: the fallback for a tile that exhausts its
	// hardware attempts.
	Golden func(Dims, []*tensor.Tensor) []*tensor.Tensor
	// Fixed, when set, is why the kernel has no searchable schedule axes:
	// an AutoSchedule compile keeps the default and reports no search.
	Fixed string

	plan lowering
}

// Dims returns the dims that compile k for layer p: the convolutions,
// tiled by image, take the co output and c input channel counts; the
// pooling kernels, one C0 slice per tile, take neither.
func (k *Kernel) Dims(p isa.ConvParams, co, c int) Dims {
	if k.Inputs[0].Tiling != ByN {
		return Dims{P: p}
	}
	return Dims{P: p, Co: co, C: c}
}

// pool adapts a pooling planner, which needs only the layer parameters.
func pool(fn func(Spec, isa.ConvParams, ScheduleParams) (*Plan, error)) lowering {
	return func(spec Spec, d Dims, sp ScheduleParams) (*Plan, error) { return fn(spec, d.P, sp) }
}

// Tile shapes.
func imgTile(d Dims) []int  { return []int{1, 1, d.P.Ih, d.P.Iw, tensor.C0} }
func maskTile(d Dims) []int { return []int{1, 1, d.P.Kh, d.P.Kw, d.P.PaddedPatches(), tensor.C0} }
func convIn(d Dims) []int   { return []int{1, tensor.C1Of(d.C), d.P.Ih, d.P.Iw, tensor.C0} }
func weights(d Dims) []int  { return []int{d.Co, d.C, d.P.Kh, d.P.Kw} }

func pooledTile(d Dims) []int {
	oh, ow := d.P.OutDims()
	return []int{1, 1, oh, ow, tensor.C0}
}

func convOut(d Dims) []int {
	oh, ow := d.P.OutDims()
	return []int{1, tensor.C1Of(d.Co), oh, ow, tensor.C0}
}

// Golden models.
func maxFwdRef(d Dims, in []*tensor.Tensor) []*tensor.Tensor {
	return []*tensor.Tensor{ref.MaxPoolForward(in[0], d.P)}
}

func argmaxRef(d Dims, in []*tensor.Tensor) []*tensor.Tensor {
	return []*tensor.Tensor{ref.MaxPoolForward(in[0], d.P), ref.ArgmaxMask(in[0], d.P)}
}

func maxBwdRef(d Dims, in []*tensor.Tensor) []*tensor.Tensor {
	return []*tensor.Tensor{ref.MaxPoolBackward(in[0], in[1], d.P, d.P.Ih, d.P.Iw)}
}

func avgFwdRef(d Dims, in []*tensor.Tensor) []*tensor.Tensor {
	return []*tensor.Tensor{ref.AvgPoolForward(in[0], d.P)}
}

func avgBwdRef(d Dims, in []*tensor.Tensor) []*tensor.Tensor {
	return []*tensor.Tensor{ref.AvgPoolBackward(in[0], d.P, d.P.Ih, d.P.Iw)}
}

func convRef(d Dims, in []*tensor.Tensor) []*tensor.Tensor {
	return []*tensor.Tensor{ref.Conv2D(in[0], in[1], d.P)}
}

func convBwdDataRef(d Dims, in []*tensor.Tensor) []*tensor.Tensor {
	return []*tensor.Tensor{ref.Conv2DBackwardData(in[0], in[1], d.P, d.C)}
}

func convBwdWeightsRef(d Dims, in []*tensor.Tensor) []*tensor.Tensor {
	return []*tensor.Tensor{ref.Conv2DBackwardWeights(in[0], in[1], d.P, d.Co, d.C)}
}

// Operand lists shared by the pooling entries.
var (
	img     = []Input{{ByNC1, imgTile}}
	grad    = []Input{{ByNC1, pooledTile}}
	pooled  = []Output{{PerTile, pooledTile}}
	dx      = []Output{{PerTile, imgTile}}
	withArg = []Output{{PerTile, pooledTile}, {PerTile, maskTile}}
)

// kernels is the catalogue, in the order every listing reports it.
var kernels = []*Kernel{
	{Name: "maxpool_fwd/standard", Inputs: img, Outputs: pooled, Golden: maxFwdRef, plan: pool(planMaxPoolFwdStandard)},
	{Name: "maxpool_fwd/im2col", Inputs: img, Outputs: pooled, Golden: maxFwdRef, plan: pool(planMaxPoolFwdIm2col)},
	{Name: "maxpool_fwd/expansion", Inputs: img, Outputs: pooled, Golden: maxFwdRef, plan: pool(planMaxPoolFwdExpansion)},
	{Name: "maxpool_fwd/xysplit", Inputs: img, Outputs: pooled, Golden: maxFwdRef, plan: pool(planMaxPoolFwdXYSplit)},
	{Name: "maxpool_fwd_argmax/standard", Inputs: img, Outputs: withArg, Golden: argmaxRef, plan: pool(planMaxPoolFwdArgmaxStandard)},
	{Name: "maxpool_fwd_argmax/im2col", Inputs: img, Outputs: withArg, Golden: argmaxRef, plan: pool(planMaxPoolFwdArgmaxIm2col)},
	{Name: "maxpool_bwd/standard", Inputs: []Input{{ByNC1, maskTile}, {ByNC1, pooledTile}}, Outputs: dx, Golden: maxBwdRef, plan: pool(planMaxPoolBwdStandard)},
	{Name: "maxpool_bwd/col2im", Inputs: []Input{{ByNC1, maskTile}, {ByNC1, pooledTile}}, Outputs: dx, Golden: maxBwdRef, plan: pool(planMaxPoolBwdCol2im)},
	{Name: "avgpool_fwd/standard", Inputs: img, Outputs: pooled, Golden: avgFwdRef, plan: pool(planAvgPoolFwdStandard)},
	{Name: "avgpool_fwd/im2col", Inputs: img, Outputs: pooled, Golden: avgFwdRef, plan: pool(planAvgPoolFwdIm2col)},
	{Name: "avgpool_fwd/cube", Inputs: img, Outputs: pooled, Golden: avgFwdRef, plan: pool(planAvgPoolFwdCube)},
	{Name: "avgpool_bwd/standard", Inputs: grad, Outputs: dx, Golden: avgBwdRef, plan: pool(planAvgPoolBwdStandard)},
	{Name: "avgpool_bwd/col2im", Inputs: grad, Outputs: dx, Golden: avgBwdRef, plan: pool(planAvgPoolBwdCol2im)},
	{
		Name: "conv2d", Program: "conv2d_im2col_cube",
		Inputs:  []Input{{ByN, convIn}, {Shared, weights}},
		Outputs: []Output{{PerTile, convOut}},
		Golden:  convRef,
		Fixed:   "Cube-unit channel tiling, L0 band split and MMAD accumulation order are fixed",
		plan:    planConv2D,
	},
	{
		Name:    "conv2d_bwd_data",
		Inputs:  []Input{{ByN, convOut}, {Shared, weights}},
		Outputs: []Output{{PerTile, convIn}},
		Golden:  convBwdDataRef,
		Fixed:   "Cube-unit channel tiling and the Col2Im scatter order are fixed",
		plan:    planConv2DBackwardData,
	},
	{
		Name:    "conv2d_bwd_weights",
		Inputs:  []Input{{ByN, convOut}, {ByN, convIn}},
		Outputs: []Output{{BatchSum, weights}},
		Golden:  convBwdWeightsRef,
		Fixed:   "Cube-unit channel tiling and MMAD accumulation order are fixed",
		plan:    planConv2DBackwardWeights,
	},
}

func init() {
	for _, k := range kernels {
		k.Family, k.Mode, _ = strings.Cut(k.Name, "/")
		if k.Program == "" {
			k.Program = strings.ReplaceAll(k.Name, "/", "_")
		}
	}
}

// Kernels returns the catalogue in listing order.
func Kernels() []*Kernel { return kernels }

// Lookup returns the catalogue entry called name.
func Lookup(name string) (*Kernel, error) {
	for _, k := range kernels {
		if k.Name == name {
			return k, nil
		}
	}
	names := make([]string, len(kernels))
	for i, k := range kernels {
		names[i] = k.Name
	}
	return nil, fmt.Errorf("ops: unknown kernel %q (have %s)", name, strings.Join(names, ", "))
}

// Modes returns the lowering modes of family's entries, sorted: the values
// of the schedule search's mode axis.
func Modes(family string) []string {
	var modes []string
	for _, k := range kernels {
		if k.Family == family {
			modes = append(modes, k.Mode)
		}
	}
	sort.Strings(modes)
	return modes
}

// Compile looks up kernel name and compiles it untraced (Kernel.Compile).
func Compile(name string, spec Spec, d Dims) (*Plan, error) {
	k, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return k.Compile(trace.Ctx{}, spec, d)
}

// Compile compiles k for d under spec with its hand-tuned schedule or,
// under spec.AutoSchedule, through the registered schedule search, whose
// spans nest under tc. A Fixed kernel keeps its default under
// AutoSchedule and reports that no search ran.
func (k *Kernel) Compile(tc trace.Ctx, spec Spec, d Dims) (*Plan, error) {
	switch {
	case !spec.AutoSchedule:
		return k.lower(spec, d, ScheduleParams{Mode: k.Mode})
	case k.Fixed != "":
		pl, err := k.lower(spec, d, ScheduleParams{})
		if err == nil {
			attachNoSearchReport(pl, k.Program, k.Program+" exposes no searchable schedule axes: "+k.Fixed)
		}
		return pl, err
	}
	return autoPlan(tc, k.Name, spec, d.P)
}

// CompileKernel compiles the pooling kernel name under an explicit
// schedule; it never searches. A non-empty sp.Mode overrides the kernel's
// mode (the lowering mode is a schedule axis).
func CompileKernel(name string, spec Spec, p isa.ConvParams, sp ScheduleParams) (*Plan, error) {
	k, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if sp.Mode != "" && sp.Mode != k.Mode {
		if k, err = Lookup(k.Family + "/" + sp.Mode); err != nil {
			return nil, err
		}
	}
	if k.Fixed != "" {
		return nil, fmt.Errorf("ops: %s has no schedule space: %s", k.Name, k.Fixed)
	}
	spec.AutoSchedule = false
	sp.Mode = k.Mode
	return k.lower(spec, Dims{P: p}, sp)
}

// lower compiles k for d under sp and records the input shapes its
// plan's Run accepts: one tile of each input.
func (k *Kernel) lower(spec Spec, d Dims, sp ScheduleParams) (*Plan, error) {
	pl, err := k.plan(spec, d, sp)
	if err != nil {
		return nil, err
	}
	pl.shapes = make([][]int, len(k.Inputs))
	for i, in := range k.Inputs {
		pl.shapes[i] = in.Shape(d)
	}
	return pl, nil
}

// Grid checks whole-tensor inputs against k's shapes for d, and each
// input's data against its shape, and returns the tile grid they span: n
// images by c1 channel slices (c1 is 1 for a kernel tiled by image).
func (k *Kernel) Grid(d Dims, inputs []*tensor.Tensor) (n, c1 int, err error) {
	if len(inputs) != len(k.Inputs) {
		return 0, 0, fmt.Errorf("%s: want %d input(s), got %d", k.Name, len(k.Inputs), len(inputs))
	}
	n, c1 = -1, -1
	for i, in := range k.Inputs {
		if inputs[i] == nil {
			return 0, 0, fmt.Errorf("%s: input %d is nil", k.Name, i)
		}
		got, want := inputs[i].Shape, in.Shape(d)
		lead := in.Tiling.tiled()
		if n < 0 && lead > 0 && len(got) == len(want) {
			n = got[0]
			if lead == 2 {
				c1 = got[1]
			}
		}
		if lead > 0 {
			want[0] = n
		}
		if lead > 1 {
			want[1] = c1
		}
		if !slices.Equal(got, want) {
			return 0, 0, fmt.Errorf("%s: input %d has shape %v, want %s", k.Name, i, got, shapeString(want))
		}
		size := fp16.Bytes
		for _, v := range got {
			size *= v
		}
		if len(inputs[i].Data) != size {
			return 0, 0, fmt.Errorf("%s: input %d of shape %v holds %d bytes, want %d", k.Name, i, got, len(inputs[i].Data), size)
		}
	}
	return max(n, 0), max(c1, 1), nil
}

// shapeString renders a wanted shape, naming the grid dimensions not yet
// known (-1) N and C1.
func shapeString(shape []int) string {
	dims := make([]string, len(shape))
	for i, v := range shape {
		dims[i] = strconv.Itoa(v)
		if v < 0 {
			dims[i] = [...]string{"N", "C1"}[i]
		}
	}
	return "(" + strings.Join(dims, ",") + ")"
}
