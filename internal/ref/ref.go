// Package ref provides golden reference models for every operator in this
// reproduction: pooling forward/backward, the argmax mask, and convolution.
// They are written as direct transcriptions of the mathematical definitions
// in paper §II, operating on fractal-layout tensors.
//
// Accumulations are performed in Float16 in the same (kh, kw) row-major
// order the simulated kernels use, so correctness tests can require exact
// equality rather than tolerances (max pooling is rounding-free anyway;
// average pooling and backward merges round identically when the order
// matches).
//
// Padding semantics: pooling treats zero padding as data, exactly as the
// Im2Col load deposits zeros for padded positions (§III-C). All kernel
// variants in internal/ops share this convention.
package ref

import (
	"fmt"

	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/scu"
	"davinci/internal/tensor"
)

func checkFractal(in *tensor.Tensor) (n, c1, h, w int) {
	if len(in.Shape) != 5 || in.Shape[4] != tensor.C0 {
		panic(fmt.Sprintf("ref: want NC1HWC0 tensor, got %v", in.Shape))
	}
	return in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
}

// MaxPoolForward computes max pooling over an NC1HWC0 input, returning the
// (N, C1, Oh, Ow, C0) output (paper §II-C, Fig. 3 top).
func MaxPoolForward(in *tensor.Tensor, p isa.ConvParams) *tensor.Tensor {
	n, c1, _, _ := checkFractal(in)
	oh, ow := p.OutDims()
	out := tensor.New(n, c1, oh, ow, tensor.C0)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c1; ci++ {
			for ohi := 0; ohi < oh; ohi++ {
				for owi := 0; owi < ow; owi++ {
					patch := ohi*ow + owi
					for c0 := 0; c0 < tensor.C0; c0++ {
						acc := fp16.NegativeInfinity
						for xk := 0; xk < p.Kh; xk++ {
							for yk := 0; yk < p.Kw; yk++ {
								v := sampleZeroPad(in, p, ni, ci, patch, xk, yk, c0)
								acc = fp16.Max(acc, v)
							}
						}
						out.Set(acc, ni, ci, ohi, owi, c0)
					}
				}
			}
		}
	}
	return out
}

// sampleZeroPad reads the input element for (patch, xk, yk) or zero when it
// falls in the padding.
func sampleZeroPad(in *tensor.Tensor, p isa.ConvParams, n, c1, patch, xk, yk, c0 int) fp16.Float16 {
	h, w, pad := scu.SourceCoord(p, patch, xk, yk)
	if pad {
		return fp16.Zero
	}
	return in.At(n, c1, h, w, c0)
}

// AvgPoolForward computes average pooling: a sum reduction in (kh, kw)
// row-major Float16 order followed by a multiply with 1/(Kh*Kw), matching
// the vadd + vmuls lowering of §V-C.
func AvgPoolForward(in *tensor.Tensor, p isa.ConvParams) *tensor.Tensor {
	n, c1, _, _ := checkFractal(in)
	oh, ow := p.OutDims()
	inv := fp16.FromFloat64(1 / float64(p.Kh*p.Kw))
	out := tensor.New(n, c1, oh, ow, tensor.C0)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c1; ci++ {
			for ohi := 0; ohi < oh; ohi++ {
				for owi := 0; owi < ow; owi++ {
					patch := ohi*ow + owi
					for c0 := 0; c0 < tensor.C0; c0++ {
						acc := fp16.Zero
						for xk := 0; xk < p.Kh; xk++ {
							for yk := 0; yk < p.Kw; yk++ {
								acc = fp16.Add(acc, sampleZeroPad(in, p, ni, ci, patch, xk, yk, c0))
							}
						}
						out.Set(fp16.Mul(acc, inv), ni, ci, ohi, owi, c0)
					}
				}
			}
		}
	}
	return out
}

// ArgmaxMask computes the mask saved by the forward pass for training
// (§V-A): the im2col view of the input compared for equality with the
// broadcast maximum of each patch. It has the Im2Col output shape
// (N, C1, Kh, Kw, OhOw16, C0); positions equal to the patch maximum hold 1.
// Fractal tail rows compare zero against the maximum, exactly as the
// hardware kernel's vcmp does.
func ArgmaxMask(in *tensor.Tensor, p isa.ConvParams) *tensor.Tensor {
	out := MaxPoolForward(in, p)
	n, c1, _, _ := checkFractal(in)
	_, ow := p.OutDims()
	padded := p.PaddedPatches()
	patches := p.Patches()
	mask := tensor.New(n, c1, p.Kh, p.Kw, padded, tensor.C0)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c1; ci++ {
			for xk := 0; xk < p.Kh; xk++ {
				for yk := 0; yk < p.Kw; yk++ {
					for pt := 0; pt < patches; pt++ {
						for c0 := 0; c0 < tensor.C0; c0++ {
							v := sampleZeroPad(in, p, ni, ci, pt, xk, yk, c0)
							m := out.At(ni, ci, pt/ow, pt%ow, c0)
							if fp16.Equal(v, m) {
								mask.Set(fp16.One, ni, ci, xk, yk, pt, c0)
							}
						}
					}
				}
			}
		}
	}
	return mask
}

// MaxPoolBackward propagates gradients through max pooling (§II-C,
// Fig. 3 bottom): multiply the argmax mask with the broadcast incoming
// gradients, then merge overlapping patches back to the input shape with
// col2im. mask has the Im2Col shape; grad has shape (N, C1, Oh, Ow, C0).
func MaxPoolBackward(mask, grad *tensor.Tensor, p isa.ConvParams, ih, iw int) *tensor.Tensor {
	mg := MaskGradProduct(mask, grad, p)
	return scu.Col2im(mg, p, ih, iw)
}

// MaskGradProduct computes the elementwise product of an Im2Col-shaped
// mask with broadcast gradients (Listing 3).
func MaskGradProduct(mask, grad *tensor.Tensor, p isa.ConvParams) *tensor.Tensor {
	n, c1 := mask.Shape[0], mask.Shape[1]
	padded := p.PaddedPatches()
	patches := p.Patches()
	_, ow := p.OutDims()
	out := tensor.New(n, c1, p.Kh, p.Kw, padded, tensor.C0)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c1; ci++ {
			for xk := 0; xk < p.Kh; xk++ {
				for yk := 0; yk < p.Kw; yk++ {
					for pt := 0; pt < patches; pt++ {
						for c0 := 0; c0 < tensor.C0; c0++ {
							g := grad.At(ni, ci, pt/ow, pt%ow, c0)
							v := fp16.Mul(mask.At(ni, ci, xk, yk, pt, c0), g)
							out.Set(v, ni, ci, xk, yk, pt, c0)
						}
					}
				}
			}
		}
	}
	return out
}

// AvgPoolBackward propagates gradients through average pooling: the
// equivalent mask is all ones scaled by 1/(Kh*Kw) (§V-C), so each
// gradient is scaled and scattered with col2im.
func AvgPoolBackward(grad *tensor.Tensor, p isa.ConvParams, ih, iw int) *tensor.Tensor {
	n, c1 := grad.Shape[0], grad.Shape[1]
	padded := p.PaddedPatches()
	patches := p.Patches()
	_, ow := p.OutDims()
	inv := fp16.FromFloat64(1 / float64(p.Kh*p.Kw))
	cols := tensor.New(n, c1, p.Kh, p.Kw, padded, tensor.C0)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c1; ci++ {
			for xk := 0; xk < p.Kh; xk++ {
				for yk := 0; yk < p.Kw; yk++ {
					for pt := 0; pt < patches; pt++ {
						for c0 := 0; c0 < tensor.C0; c0++ {
							g := fp16.Mul(grad.At(ni, ci, pt/ow, pt%ow, c0), inv)
							cols.Set(g, ni, ci, xk, yk, pt, c0)
						}
					}
				}
			}
		}
	}
	return scu.Col2im(cols, p, ih, iw)
}

// Conv2D computes convolution over an NC1HWC0 input with weights given as
// (Co, C, Kh, Kw) (plain NCHW-style kernel stack), returning the output in
// fractal layout (N, Co1, Oh, Ow, C0) with zero padding in the Co tail.
// Accumulation is float32, matching the Cube unit's fp32 accumulator, with
// one final rounding to Float16 (§II-A).
func Conv2D(in, weights *tensor.Tensor, p isa.ConvParams) *tensor.Tensor {
	n, c1, _, _ := checkFractal(in)
	if len(weights.Shape) != 4 {
		panic(fmt.Sprintf("ref: want (Co,C,Kh,Kw) weights, got %v", weights.Shape))
	}
	co, c := weights.Shape[0], weights.Shape[1]
	if tensor.C1Of(c) > c1 {
		panic(fmt.Sprintf("ref: weight channels %d exceed input C1 %d", c, c1))
	}
	oh, ow := p.OutDims()
	out := tensor.New(n, tensor.C1Of(co), oh, ow, tensor.C0)
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < co; oc++ {
			for ohi := 0; ohi < oh; ohi++ {
				for owi := 0; owi < ow; owi++ {
					patch := ohi*ow + owi
					var acc float32
					for ic := 0; ic < c; ic++ {
						for xk := 0; xk < p.Kh; xk++ {
							for yk := 0; yk < p.Kw; yk++ {
								v := sampleZeroPad(in, p, ni, ic/tensor.C0, patch, xk, yk, ic%tensor.C0)
								wv := weights.At(oc, ic, xk, yk)
								// float32() rounds the product: no target fuses it into an FMA.
								acc += float32(v.Float32() * wv.Float32())
							}
						}
					}
					out.Set(fp16.FromFloat32(acc), ni, oc/tensor.C0, ohi, owi, oc%tensor.C0)
				}
			}
		}
	}
	return out
}

// Conv2DBackwardData propagates gradients through a convolution to its
// input: dX = col2im(dY x W^T), the original use of the Col2im transform
// ("Col2im is used in the backward propagation pass of convolutional
// layers implemented with Im2col", §II-B). grad has the fractal output
// shape (N, Co1, Oh, Ow, C0); weights are (Co, C, Kh, Kw); the result has
// shape (N, C1, Ih, Iw, C0) for ih x iw inputs with c logical channels.
//
// The per-position products accumulate in float32 (as the Cube unit's
// backward matmul does) with one rounding to Float16 before the col2im
// merge, whose sums are Float16 (Col2Im instruction semantics).
func Conv2DBackwardData(grad, weights *tensor.Tensor, p isa.ConvParams, c int) *tensor.Tensor {
	n := grad.Shape[0]
	co := weights.Shape[0]
	c1 := tensor.C1Of(c)
	_, ow := p.OutDims()
	patches := p.Patches()
	padded := p.PaddedPatches()

	cols := tensor.New(n, c1, p.Kh, p.Kw, padded, tensor.C0)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for xk := 0; xk < p.Kh; xk++ {
				for yk := 0; yk < p.Kw; yk++ {
					for pt := 0; pt < patches; pt++ {
						var acc float32
						for oc := 0; oc < co; oc++ {
							g := grad.At(ni, oc/tensor.C0, pt/ow, pt%ow, oc%tensor.C0)
							acc += float32(g.Float32() * weights.At(oc, ci, xk, yk).Float32())
						}
						cols.Set(fp16.FromFloat32(acc), ni, ci/tensor.C0, xk, yk, pt, ci%tensor.C0)
					}
				}
			}
		}
	}
	return scu.Col2im(cols, p, p.Ih, p.Iw)
}

// Conv2DBackwardWeights computes the convolution weight gradient:
// dW[oc, ic, xk, yk] = sum over images and patches of dY[oc, patch] *
// x[(ic, xk, yk) element of the patch], accumulated in float32 with one
// final rounding (the Cube unit's contraction over the patch dimension).
func Conv2DBackwardWeights(grad, x *tensor.Tensor, p isa.ConvParams, co, c int) *tensor.Tensor {
	_, ow := p.OutDims()
	patches := p.Patches()
	dw := tensor.New(co, c, p.Kh, p.Kw)
	for oc := 0; oc < co; oc++ {
		for ic := 0; ic < c; ic++ {
			for xk := 0; xk < p.Kh; xk++ {
				for yk := 0; yk < p.Kw; yk++ {
					var acc float32
					for n := 0; n < grad.Shape[0]; n++ {
						for pt := 0; pt < patches; pt++ {
							g := grad.At(n, oc/tensor.C0, pt/ow, pt%ow, oc%tensor.C0)
							v := sampleZeroPad(x, p, n, ic/tensor.C0, pt, xk, yk, ic%tensor.C0)
							acc += float32(g.Float32() * v.Float32())
						}
					}
					dw.Set(fp16.FromFloat32(acc), oc, ic, xk, yk)
				}
			}
		}
	}
	return dw
}
