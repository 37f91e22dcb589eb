package kernelcases

import (
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/ops"
)

// TestIsCapacitySkipTyped: a sweep may skip a shape only on a typed
// capacity failure. A lint bounds error or an instruction validation
// error whose message happens to say "exceeds" is a bug the sweep must
// report, not a shape to skip.
func TestIsCapacitySkipTyped(t *testing.T) {
	wide := isa.ConvParams{Ih: 9, Iw: 4096, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	_, tooLarge := ops.CompileKernel("maxpool_fwd/standard", ops.Spec{}, wide, ops.ScheduleParams{})
	small := isa.ConvParams{Ih: 8, Iw: 8, Kh: 3, Kw: 3, Sh: 1, Sw: 1}
	_, convWeights := ops.Compile("conv2d", ops.Spec{}, ops.Dims{P: small, Co: 256, C: 256})
	_, noSpace := aicore.New(buffer.Config{}, nil).Mem.Space(isa.UB).Alloc(1 << 30)

	// A strict core rejecting an out-of-bounds copy: "access ... exceeds
	// the 4096-byte UB capacity".
	strict := aicore.New(buffer.Config{UBSize: 4096}, nil)
	strict.Strict = true
	oob := cce.New("oob")
	oob.EmitCopy(isa.GM, 0, isa.UB, 4096-64, 256)
	_, lintErr := strict.Run(oob)

	// An Im2Col whose row band runs past the image: "row band ... exceeds
	// image height".
	bad := cce.New("im2col-band")
	bad.Emit(&isa.Im2ColInstr{
		SrcBuf: isa.L1, DstBuf: isa.UB, P: small, C1Len: 1,
		RowBase: 4, Rows: 8, Repeat: 1,
	})
	validateErr := bad.Validate()

	_, invalid := ops.CompileKernel("maxpool_fwd/standard", ops.Spec{}, small, ops.ScheduleParams{Band: -1})

	for _, c := range []struct {
		name string
		err  error
		want bool
	}{
		{"errTooLarge", tooLarge, true},
		{"conv weights exceed L0B", convWeights, true},
		{"buffer.ErrNoSpace", noSpace, true},
		{"strict lint bounds error", lintErr, false},
		{"Im2Col validation error", validateErr, false},
		{"invalid schedule", invalid, false},
	} {
		if c.err == nil {
			t.Fatalf("%s: setup produced no error", c.name)
		}
		if got := IsCapacitySkip(c.err); got != c.want {
			t.Errorf("%s: IsCapacitySkip(%v) = %v, want %v", c.name, c.err, got, c.want)
		}
	}
	if IsCapacitySkip(nil) {
		t.Error("IsCapacitySkip(nil) = true")
	}
}
