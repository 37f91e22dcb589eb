package dsl

import (
	"fmt"

	"davinci/internal/aicore"
	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/ops"
	_ "davinci/internal/sched" // registers the autoscheduler ops dispatches to
	"davinci/internal/tensor"
)

// poolPattern is the analysis result of a windowed-reduction computation:
// the layer parameters recovered from the affine index expressions.
type poolPattern struct {
	in    *Placeholder
	op    ReduceOp
	scale fp16.Float16 // 0 means no scaling epilogue
	p     isa.ConvParams
	n, c1 int
}

// analyzePool recognizes the Listing 1 / §V-C pattern:
//
//	out[n, c1, h, w, c0] = reduce(in[n, c1, h*Sh + rh (- Pt),
//	                                        w*Sw + rw (- Pl), c0])
//
// and recovers (Kh, Kw) from the reduction axis extents, (Sh, Sw) from the
// output-axis coefficients, and padding from the constant terms.
func analyzePool(c *Computation) (*poolPattern, error) {
	if len(c.Shape) != 5 || c.Shape[4] != tensor.C0 {
		return nil, fmt.Errorf("dsl: pooling output must be (N,C1,Oh,Ow,%d), got %v", tensor.C0, c.Shape)
	}
	pat := &poolPattern{scale: 0}
	body := c.Body
	if sc, ok := body.(Scale); ok {
		pat.scale = sc.Factor
		body = sc.Inner
	}
	red, ok := body.(Reduce)
	if !ok {
		return nil, fmt.Errorf("dsl: pooling body must be a reduction, got %T", body)
	}
	if len(red.Axes) != 2 {
		return nil, fmt.Errorf("dsl: pooling reduces over 2 axes, got %d", len(red.Axes))
	}
	pat.op = red.Op
	pat.in = red.Body.T
	idx := red.Body.Idx
	if len(idx) != 5 {
		return nil, fmt.Errorf("dsl: pooling input access must be rank 5, got %d", len(idx))
	}
	// Dimensions 0, 1 and 4 must be the identity over (n, c1, c0).
	for _, d := range []int{0, 1, 4} {
		if idx[d].Coeff(c.Vars[d]) != 1 || idx[d].ConstTerm() != 0 || len(idx[d].axes()) != 1 {
			return nil, fmt.Errorf("dsl: input dim %d must be the plain output axis", d)
		}
	}
	rh, rw := red.Axes[0], red.Axes[1]
	h, w := c.Vars[2], c.Vars[3]
	// Height: idx[2] = h*Sh + rh - Pt.
	if idx[2].Coeff(rh) != 1 || idx[2].Coeff(w) != 0 || idx[2].Coeff(rw) != 0 {
		return nil, fmt.Errorf("dsl: height access must be h*Sh + red_h")
	}
	if idx[3].Coeff(rw) != 1 || idx[3].Coeff(h) != 0 || idx[3].Coeff(rh) != 0 {
		return nil, fmt.Errorf("dsl: width access must be w*Sw + red_w")
	}
	pat.p = isa.ConvParams{
		Ih: pat.in.Shape[2], Iw: pat.in.Shape[3],
		Sh: idx[2].Coeff(h), Sw: idx[3].Coeff(w),
		Kh: rh.Extent, Kw: rw.Extent,
		Pt: -idx[2].ConstTerm(), Pl: -idx[3].ConstTerm(),
	}
	// Bottom/right padding follows from the output extent (Eq. 1 solved
	// for Pb/Pr).
	oh, ow := c.Shape[2], c.Shape[3]
	pat.p.Pb = (oh-1)*pat.p.Sh + pat.p.Kh - pat.p.Ih - pat.p.Pt
	pat.p.Pr = (ow-1)*pat.p.Sw + pat.p.Kw - pat.p.Iw - pat.p.Pl
	if pat.p.Pb < 0 || pat.p.Pr < 0 {
		// The window never reaches past the input; no padding needed.
		if pat.p.Pb < 0 {
			pat.p.Pb = 0
		}
		if pat.p.Pr < 0 {
			pat.p.Pr = 0
		}
	}
	if err := pat.p.Validate(); err != nil {
		return nil, fmt.Errorf("dsl: recovered invalid layer parameters: %w", err)
	}
	gotOh, gotOw := pat.p.OutDims()
	if gotOh != oh || gotOw != ow {
		return nil, fmt.Errorf("dsl: output extent (%d,%d) inconsistent with access pattern (%d,%d)", oh, ow, gotOh, gotOw)
	}
	if pat.in.Shape[0] != c.Shape[0] || pat.in.Shape[1] != c.Shape[1] {
		return nil, fmt.Errorf("dsl: N/C1 extents differ between input and output")
	}
	pat.n, pat.c1 = c.Shape[0], c.Shape[1]
	// Scaling is only supported as AvgPool's 1/(Kh*Kw) epilogue.
	if pat.scale != 0 {
		want := fp16.FromFloat64(1 / float64(pat.p.Kh*pat.p.Kw))
		if pat.op != ReduceSum || pat.scale != want {
			return nil, fmt.Errorf("dsl: only the 1/(Kh*Kw) AvgPool epilogue is supported")
		}
	}
	return pat, nil
}

// Build lowers the scheduled computation and runs it on the core, tiling
// the (N, C1) loops serially (the multi-core parallelization of these
// loops lives in internal/chip). It returns the result and timing.
func Build(core *aicore.Core, s *Schedule, inputs map[*Placeholder]*tensor.Tensor) (*tensor.Tensor, *aicore.Stats, error) {
	for p, t := range inputs {
		for i := range p.Shape {
			if len(t.Shape) != len(p.Shape) || t.Shape[i] != p.Shape[i] {
				return nil, nil, fmt.Errorf("dsl: input %s shape %v does not match placeholder %v", p.Name, t.Shape, p.Shape)
			}
		}
	}
	if pat, err := analyzePool(s.Out); err == nil {
		return buildPool(core, s, pat, inputs)
	} else if bin, ok := s.Out.Body.(Bin); ok {
		return buildElementwise(core, s.Out, bin, inputs)
	} else {
		return nil, nil, fmt.Errorf("dsl: unsupported computation (pooling analysis: %v)", err)
	}
}

func buildPool(core *aicore.Core, s *Schedule, pat *poolPattern, inputs map[*Placeholder]*tensor.Tensor) (*tensor.Tensor, *aicore.Stats, error) {
	in, ok := inputs[pat.in]
	if !ok {
		return nil, nil, fmt.Errorf("dsl: no binding for placeholder %s", pat.in.Name)
	}
	spec := ops.SpecFor(core)
	family := "maxpool_fwd"
	if pat.op != ReduceMax {
		family = "avgpool_fwd"
		if s.Strategy() != StrategyStandard && s.Strategy() != StrategyIm2col {
			return nil, nil, fmt.Errorf("dsl: no %v lowering for %v pooling", s.Strategy(), pat.op)
		}
	}
	kernel := family + "/" + s.Strategy().String()
	var (
		pl  *ops.Plan
		err error
	)
	if s.Auto() {
		// Delegate every schedule decision to the search layer; the
		// declared strategy seeds the search but the mode is an axis.
		spec.AutoSchedule = true
		pl, err = ops.Compile(kernel, spec, ops.Dims{P: pat.p})
	} else {
		pl, err = ops.CompileKernel(kernel, spec, pat.p, s.Params())
	}
	if err != nil {
		return nil, nil, fmt.Errorf("dsl: %w", err)
	}
	if pat.op == ReduceSum && pat.scale == 0 {
		return nil, nil, fmt.Errorf("dsl: sum pooling without the 1/(Kh*Kw) epilogue is not a pooling layer")
	}
	oh, ow := pat.p.OutDims()
	out := tensor.New(pat.n, pat.c1, oh, ow, tensor.C0)
	total := &aicore.Stats{}
	for ni := 0; ni < pat.n; ni++ {
		for ci := 0; ci < pat.c1; ci++ {
			tile := tensor.SliceC1(in, ni, ci)
			outs, st, err := pl.Run(core, tile)
			if err != nil {
				return nil, nil, err
			}
			tensor.StoreC1(out, outs[0], ni, ci)
			total.AddSerial(st)
		}
	}
	return out, total, nil
}

// buildElementwise lowers out[i...] = a[i...] OP b[i...] where both
// accesses are the identity over the output axes: a flat vector map.
func buildElementwise(core *aicore.Core, c *Computation, bin Bin, inputs map[*Placeholder]*tensor.Tensor) (*tensor.Tensor, *aicore.Stats, error) {
	for _, acc := range []Access{bin.A, bin.B} {
		if len(acc.Idx) != len(c.Shape) {
			return nil, nil, fmt.Errorf("dsl: elementwise rank mismatch")
		}
		for d, ix := range acc.Idx {
			if ix.Coeff(c.Vars[d]) != 1 || ix.ConstTerm() != 0 || len(ix.axes()) != 1 {
				return nil, nil, fmt.Errorf("dsl: elementwise access must be the identity over output axes")
			}
		}
		for d := range c.Shape {
			if acc.T.Shape[d] != c.Shape[d] {
				return nil, nil, fmt.Errorf("dsl: elementwise shapes must match")
			}
		}
	}
	a, ok := inputs[bin.A.T]
	if !ok {
		return nil, nil, fmt.Errorf("dsl: no binding for %s", bin.A.T.Name)
	}
	b, ok := inputs[bin.B.T]
	if !ok {
		return nil, nil, fmt.Errorf("dsl: no binding for %s", bin.B.T.Name)
	}
	count := a.Len()
	if count%isa.ElemsPerBlock != 0 {
		return nil, nil, fmt.Errorf("dsl: elementwise extent %d not a multiple of %d", count, isa.ElemsPerBlock)
	}
	var op isa.VecOp
	switch bin.Kind {
	case BinAdd:
		op = isa.VAdd
	case BinMul:
		op = isa.VMul
	default:
		op = isa.VMax
	}

	core.Mem.ResetLocal()
	aGM, err := core.Mem.PlaceTensor(isa.GM, a)
	if err != nil {
		return nil, nil, err
	}
	bGM, err := core.Mem.PlaceTensor(isa.GM, b)
	if err != nil {
		return nil, nil, err
	}
	outGM, err := core.Mem.Space(isa.GM).Alloc(count * fp16.Bytes)
	if err != nil {
		return nil, nil, err
	}
	// Chunk through the UB with double buffering.
	ub := core.Mem.Space(isa.UB)
	chunk := (ub.Free() - 8*isa.BlockBytes) / (6 * fp16.Bytes) / isa.ElemsPerBlock * isa.ElemsPerBlock
	if chunk <= 0 {
		return nil, nil, fmt.Errorf("dsl: unified buffer too small")
	}
	var aUB, bUB, oUB [2]int
	for i := 0; i < 2; i++ {
		aUB[i] = ub.MustAlloc(chunk * fp16.Bytes)
		bUB[i] = ub.MustAlloc(chunk * fp16.Bytes)
		oUB[i] = ub.MustAlloc(chunk * fp16.Bytes)
	}
	prog := cce.New("dsl_elementwise_" + c.Name)
	for off, bi := 0, 0; off < count; off, bi = off+chunk, bi+1 {
		nn := chunk
		if off+nn > count {
			nn = count - off
		}
		i := bi % 2
		prog.EmitCopy(isa.GM, aGM+off*fp16.Bytes, isa.UB, aUB[i], nn*fp16.Bytes)
		prog.EmitCopy(isa.GM, bGM+off*fp16.Bytes, isa.UB, bUB[i], nn*fp16.Bytes)
		prog.EmitElementwise(op, isa.UB, oUB[i], aUB[i], bUB[i], nn)
		prog.EmitCopy(isa.UB, oUB[i], isa.GM, outGM+off*fp16.Bytes, nn*fp16.Bytes)
	}
	st, err := core.Run(prog)
	if err != nil {
		return nil, nil, err
	}
	return core.Mem.ReadTensor(isa.GM, outGM, c.Shape...), st, nil
}
