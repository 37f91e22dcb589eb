// Package kernelcases enumerates every built-in kernel as a (planner,
// input builder) pair, so sweeps that want "all kernels on all layers" —
// the static-bound reality check, the accounting-identity test, the
// benchmark Table I sweep — share one catalogue instead of each keeping a
// private copy that drifts.
package kernelcases

import (
	"errors"
	"math/rand"

	"davinci/internal/buffer"
	"davinci/internal/isa"
	"davinci/internal/ops"
	"davinci/internal/ref"
	"davinci/internal/tensor"
)

// ConvCh is the channel extent the convolution kernels are compiled for
// in sweeps: one C0 slice, so the (1,1,H,W,C0) pooling tile doubles as
// the convolution input.
const ConvCh = tensor.C0

// Case is one built-in kernel: a plan compiler plus an input builder for
// a given layer's parameters.
type Case struct {
	// Name is "kernel/variant", e.g. "maxpool_fwd/im2col".
	Name string
	// Plan compiles the kernel for one (1,1,H,W,C0) tile.
	Plan func(spec ops.Spec, p isa.ConvParams) (*ops.Plan, error)
	// Inputs builds suitable single-tile inputs for Plan's program.
	Inputs func(rng *rand.Rand, p isa.ConvParams) []*tensor.Tensor
}

// IsCapacitySkip reports whether a planning error means the shape does
// not fit the kernel's on-chip tiling (and a sweep should skip it, like
// the chip-level tiling would) rather than a bug: the error wraps
// ops.ErrCapacity or buffer.ErrNoSpace. Lint and validation errors never
// qualify, whatever their wording.
func IsCapacitySkip(err error) bool {
	return errors.Is(err, ops.ErrCapacity) || errors.Is(err, buffer.ErrNoSpace)
}

func randTile(rng *rand.Rand, h, w int) *tensor.Tensor {
	t := tensor.New(1, 1, h, w, tensor.C0)
	t.FillRandom(rng, 8)
	return t
}

func inTile(rng *rand.Rand, p isa.ConvParams) []*tensor.Tensor {
	return []*tensor.Tensor{randTile(rng, p.Ih, p.Iw)}
}

func gradTile(rng *rand.Rand, p isa.ConvParams) []*tensor.Tensor {
	oh, ow := p.OutDims()
	return []*tensor.Tensor{randTile(rng, oh, ow)}
}

func maskGrad(rng *rand.Rand, p isa.ConvParams) []*tensor.Tensor {
	in := randTile(rng, p.Ih, p.Iw)
	g := gradTile(rng, p)
	return []*tensor.Tensor{ref.ArgmaxMask(in, p), g[0]}
}

func randWeights(rng *rand.Rand, p isa.ConvParams) *tensor.Tensor {
	w := tensor.New(ConvCh, ConvCh, p.Kh, p.Kw)
	w.FillRandom(rng, 4)
	return w
}

// All enumerates every planner the dispatch tables (and the conv
// substrate) expose, with suitable single-tile inputs.
func All() []Case {
	var cases []Case
	forVariant := func(name string, fn func(string, ops.Spec, isa.ConvParams) (*ops.Plan, error), variants []string, in func(*rand.Rand, isa.ConvParams) []*tensor.Tensor) {
		for _, v := range variants {
			variant := v
			cases = append(cases, Case{
				Name:   name + "/" + variant,
				Plan:   func(spec ops.Spec, p isa.ConvParams) (*ops.Plan, error) { return fn(variant, spec, p) },
				Inputs: in,
			})
		}
	}
	forVariant("maxpool_fwd", ops.PlanMaxPoolForward, []string{"standard", "im2col", "expansion", "xysplit"}, inTile)
	forVariant("maxpool_fwd_argmax", ops.PlanMaxPoolForwardArgmax, []string{"standard", "im2col"}, inTile)
	forVariant("maxpool_bwd", ops.PlanMaxPoolBackward, []string{"standard", "col2im"}, maskGrad)
	forVariant("avgpool_fwd", ops.PlanAvgPoolForward, []string{"standard", "im2col", "cube"}, inTile)
	for _, useCol2im := range []bool{false, true} {
		use := useCol2im
		name := "avgpool_bwd/standard"
		if use {
			name = "avgpool_bwd/col2im"
		}
		cases = append(cases, Case{
			Name:   name,
			Plan:   func(spec ops.Spec, p isa.ConvParams) (*ops.Plan, error) { return ops.PlanAvgPoolBackward(spec, p, use) },
			Inputs: gradTile,
		})
	}
	cases = append(cases,
		Case{"conv2d",
			func(spec ops.Spec, p isa.ConvParams) (*ops.Plan, error) {
				return ops.PlanConv2D(spec, p, ConvCh, ConvCh)
			},
			func(rng *rand.Rand, p isa.ConvParams) []*tensor.Tensor {
				return []*tensor.Tensor{randTile(rng, p.Ih, p.Iw), randWeights(rng, p)}
			}},
		Case{"conv2d_bwd_data",
			func(spec ops.Spec, p isa.ConvParams) (*ops.Plan, error) {
				return ops.PlanConv2DBackwardData(spec, p, ConvCh, ConvCh)
			},
			func(rng *rand.Rand, p isa.ConvParams) []*tensor.Tensor {
				return []*tensor.Tensor{gradTile(rng, p)[0], randWeights(rng, p)}
			}},
		Case{"conv2d_bwd_weights",
			func(spec ops.Spec, p isa.ConvParams) (*ops.Plan, error) {
				return ops.PlanConv2DBackwardWeights(spec, p, ConvCh, ConvCh)
			},
			func(rng *rand.Rand, p isa.ConvParams) []*tensor.Tensor {
				return []*tensor.Tensor{gradTile(rng, p)[0], randTile(rng, p.Ih, p.Iw)}
			}},
	)
	return cases
}
