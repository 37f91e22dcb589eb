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

// runKernel compiles kernel ("family/variant", e.g. "maxpool_fwd/im2col")
// for core's buffers through testPlans and runs it on core.
func runKernel(core *aicore.Core, kernel string, p isa.ConvParams, inputs ...*tensor.Tensor) ([]*tensor.Tensor, *aicore.Stats, error) {
	spec := SpecFor(core)
	pl, err := testPlans.Get(trace.Ctx{}, PlanKey{Kernel: kernel, Params: p, Spec: spec}, func(trace.Ctx) (*Plan, error) {
		return CompileKernel(kernel, spec, p, ScheduleParams{})
	})
	if err != nil {
		return nil, nil, err
	}
	return pl.Run(core, inputs...)
}

// runOne is runKernel for single-output kernels.
func runOne(core *aicore.Core, kernel string, p isa.ConvParams, inputs ...*tensor.Tensor) (*tensor.Tensor, *aicore.Stats, error) {
	outs, st, err := runKernel(core, kernel, p, inputs...)
	if err != nil {
		return nil, nil, err
	}
	return outs[0], st, nil
}

// convPlan is a PlanCache convolution constructor for co x c logical
// channels, as a method expression such as (*PlanCache).Conv2D.
type convPlan func(*PlanCache, trace.Ctx, Spec, isa.ConvParams, int, int) (*Plan, error)

// runConv compiles a convolution kernel through testPlans and runs it on
// core.
func runConv(core *aicore.Core, plan convPlan, p isa.ConvParams, co, c int, inputs ...*tensor.Tensor) (*tensor.Tensor, *aicore.Stats, error) {
	pl, err := plan(testPlans, trace.Ctx{}, SpecFor(core), p, co, c)
	if err != nil {
		return nil, nil, err
	}
	outs, st, err := pl.Run(core, inputs...)
	if err != nil {
		return nil, nil, err
	}
	return outs[0], st, nil
}

// conv2D runs the Cube convolution of in, (1, C1, Ih, Iw, C0), with
// (Co, C, Kh, Kw) weights.
func conv2D(core *aicore.Core, in, weights *tensor.Tensor, p isa.ConvParams) (*tensor.Tensor, *aicore.Stats, error) {
	return runConv(core, (*PlanCache).Conv2D, p, weights.Shape[0], weights.Shape[1], in, weights)
}

// conv2DBackwardData propagates grad, (1, Co1, Oh, Ow, C0), through a
// convolution with (Co, C, Kh, Kw) weights to its c-channel input.
func conv2DBackwardData(core *aicore.Core, grad, weights *tensor.Tensor, p isa.ConvParams, c int) (*tensor.Tensor, *aicore.Stats, error) {
	return runConv(core, (*PlanCache).Conv2DBackwardData, p, weights.Shape[0], c, grad, weights)
}

// conv2DBackwardWeights computes the (Co, C, Kh, Kw) weight gradient from
// grad, (1, Co1, Oh, Ow, C0), and the layer input x, (1, C1, Ih, Iw, C0).
func conv2DBackwardWeights(core *aicore.Core, grad, x *tensor.Tensor, p isa.ConvParams, co, c int) (*tensor.Tensor, *aicore.Stats, error) {
	return runConv(core, (*PlanCache).Conv2DBackwardWeights, p, co, c, grad, x)
}
