package ops

import (
	"davinci/internal/aicore"
	"davinci/internal/isa"
	"davinci/internal/tensor"
	"davinci/internal/trace"
)

// testPlans is the plan cache the package's tests compile through, so a
// shape several tests share compiles once.
var testPlans = NewPlanCache()

// runKernel compiles catalogue kernel name for layer p and core's
// buffers through testPlans and runs it on core.
func runKernel(core *aicore.Core, kernel string, p isa.ConvParams, inputs ...*tensor.Tensor) ([]*tensor.Tensor, *aicore.Stats, error) {
	return runDims(core, kernel, Dims{P: p}, inputs...)
}

// runDims is runKernel for explicit dims (the convolutions' channel
// counts).
func runDims(core *aicore.Core, kernel string, d Dims, inputs ...*tensor.Tensor) ([]*tensor.Tensor, *aicore.Stats, error) {
	k, err := Lookup(kernel)
	if err != nil {
		return nil, nil, err
	}
	pl, err := testPlans.Plan(trace.Ctx{}, k, SpecFor(core), d)
	if err != nil {
		return nil, nil, err
	}
	return pl.Run(core, inputs...)
}

// runOne is runKernel for single-output kernels.
func runOne(core *aicore.Core, kernel string, p isa.ConvParams, inputs ...*tensor.Tensor) (*tensor.Tensor, *aicore.Stats, error) {
	return first(runKernel(core, kernel, p, inputs...))
}

func first(outs []*tensor.Tensor, st *aicore.Stats, err error) (*tensor.Tensor, *aicore.Stats, error) {
	if err != nil {
		return nil, nil, err
	}
	return outs[0], st, nil
}

// conv2D runs the Cube convolution of in, (1, C1, Ih, Iw, C0), with
// (Co, C, Kh, Kw) weights.
func conv2D(core *aicore.Core, in, weights *tensor.Tensor, p isa.ConvParams) (*tensor.Tensor, *aicore.Stats, error) {
	return first(runDims(core, "conv2d", Dims{P: p, Co: weights.Shape[0], C: weights.Shape[1]}, in, weights))
}

// conv2DBackwardData propagates grad, (1, Co1, Oh, Ow, C0), through a
// convolution with (Co, C, Kh, Kw) weights to its c-channel input.
func conv2DBackwardData(core *aicore.Core, grad, weights *tensor.Tensor, p isa.ConvParams, c int) (*tensor.Tensor, *aicore.Stats, error) {
	return first(runDims(core, "conv2d_bwd_data", Dims{P: p, Co: weights.Shape[0], C: c}, grad, weights))
}

// conv2DBackwardWeights computes the (Co, C, Kh, Kw) weight gradient from
// grad, (1, Co1, Oh, Ow, C0), and the layer input x, (1, C1, Ih, Iw, C0).
func conv2DBackwardWeights(core *aicore.Core, grad, x *tensor.Tensor, p isa.ConvParams, co, c int) (*tensor.Tensor, *aicore.Stats, error) {
	return first(runDims(core, "conv2d_bwd_weights", Dims{P: p, Co: co, C: c}, grad, x))
}
