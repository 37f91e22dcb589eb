package nn

import (
	"fmt"

	"davinci/internal/chip"
	"davinci/internal/isa"
	"davinci/internal/tensor"
)

// Tape records a forward pass for backpropagation: each layer's input
// activation and, for max pooling, the argmax mask the accelerated
// backward kernels consume (paper §V-A: "it is useful to save an
// additional result in the forward implementation").
type Tape struct {
	model   *Sequential
	inputs  []*tensor.Tensor // input activation per layer
	masks   []*tensor.Tensor // argmax masks for MaxPool2D layers
	params  []isa.ConvParams // resolved layer parameters
	Out     *tensor.Tensor
	Reports []LayerReport
	Cycles  int64
}

// WeightGrad pairs a convolution layer with its weight gradient.
type WeightGrad struct {
	Layer *Conv2D
	Grad  *tensor.Tensor
}

// ForwardTape runs the model like Forward but records everything the
// backward pass needs. MaxPool layers run their argmax-saving variants
// ("standard" maps to the Fig. 7b standard kernel, anything else to the
// accelerated one).
func (s *Sequential) ForwardTape(dev *chip.Chip, in *tensor.Tensor) (*Tape, error) {
	tape := &Tape{model: s}
	x := in
	for i, l := range s.Layers {
		tape.inputs = append(tape.inputs, x)
		var out *tensor.Tensor
		var st *chip.Stats
		var err error
		var mask *tensor.Tensor
		var p isa.ConvParams

		switch layer := l.(type) {
		case *MaxPool2D:
			p = isa.ConvParams{
				Ih: x.Shape[2], Iw: x.Shape[3],
				Kh: layer.Kernel, Kw: layer.Kernel, Sh: layer.Stride, Sw: layer.Stride,
				Pt: layer.Pad, Pb: layer.Pad, Pl: layer.Pad, Pr: layer.Pad,
			}
			variant := "im2col"
			if layer.variant() == "standard" {
				variant = "standard"
			}
			out, mask, st, err = dev.MaxPoolForwardArgmax(variant, x, p)
		case *AvgPool2D:
			p = isa.ConvParams{
				Ih: x.Shape[2], Iw: x.Shape[3],
				Kh: layer.Kernel, Kw: layer.Kernel, Sh: layer.Stride, Sw: layer.Stride,
				Pt: layer.Pad, Pb: layer.Pad, Pl: layer.Pad, Pr: layer.Pad,
			}
			out, st, err = l.Forward(dev, x)
		case *Conv2D:
			p = isa.ConvParams{
				Ih: x.Shape[2], Iw: x.Shape[3],
				Kh: layer.Weights.Shape[2], Kw: layer.Weights.Shape[3],
				Sh: layer.Stride, Sw: layer.Stride,
				Pt: layer.Pad, Pb: layer.Pad, Pl: layer.Pad, Pr: layer.Pad,
			}
			out, st, err = l.Forward(dev, x)
		default:
			return nil, fmt.Errorf("nn: layer %d (%s) is not trainable", i, l.Name())
		}
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, l.Name(), err)
		}
		tape.masks = append(tape.masks, mask)
		tape.params = append(tape.params, p)
		tape.Reports = append(tape.Reports, LayerReport{
			Name: l.Name(), OutShape: append([]int(nil), out.Shape...),
			Cycles: st.Cycles, BytesIn: st.Work.BytesIn, BytesOut: st.Work.BytesOut,
		})
		tape.Cycles += st.Cycles
		x = out
	}
	tape.Out = x
	return tape, nil
}

// Backward propagates grad (the loss derivative with respect to the
// model's output) through the recorded layers. It returns the weight
// gradients of every convolution layer, the gradient with respect to the
// model input, and the simulated cycles spent.
//
// Pooling layers use their Col2Im-based backward kernels (Fig. 7c); the
// convolution input gradients use the Cube + Col2Im backward-data path and
// the weight gradients use dY^T x im2col(x) on the Cube.
func (t *Tape) Backward(dev *chip.Chip, grad *tensor.Tensor) ([]WeightGrad, *tensor.Tensor, int64, error) {
	var wgrads []WeightGrad
	var cycles int64
	g := grad
	for i := len(t.model.Layers) - 1; i >= 0; i-- {
		l := t.model.Layers[i]
		p := t.params[i]
		switch layer := l.(type) {
		case *MaxPool2D:
			out, st, err := dev.MaxPoolBackward("col2im", t.masks[i], g, p)
			if err != nil {
				return nil, nil, cycles, fmt.Errorf("nn: backward layer %d (%s): %w", i, l.Name(), err)
			}
			g = out
			cycles += st.Cycles
		case *AvgPool2D:
			out, st, err := dev.AvgPoolBackward("col2im", g, p)
			if err != nil {
				return nil, nil, cycles, fmt.Errorf("nn: backward layer %d (%s): %w", i, l.Name(), err)
			}
			g = out
			cycles += st.Cycles
		case *Conv2D:
			c := layer.Weights.Shape[1]
			dw, st, err := dev.Conv2DBackwardWeights(g, t.inputs[i], p, layer.Weights.Shape[0], c)
			if err != nil {
				return nil, nil, cycles, fmt.Errorf("nn: dW layer %d (%s): %w", i, l.Name(), err)
			}
			cycles += st.Cycles
			wgrads = append(wgrads, WeightGrad{Layer: layer, Grad: dw})
			if i > 0 { // the input gradient is not needed before layer 0
				dx, st, err := dev.Conv2DBackwardData(g, layer.Weights, p, c)
				if err != nil {
					return nil, nil, cycles, fmt.Errorf("nn: dX layer %d (%s): %w", i, l.Name(), err)
				}
				g = dx
				cycles += st.Cycles
			}
		}
	}
	return wgrads, g, cycles, nil
}
