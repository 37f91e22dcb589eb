package ops

import (
	"strings"
	"testing"

	"davinci/internal/isa"
)

// TestInvalidScheduleKnobs drives every kernel family's schedule-knob
// validation: each lowering must reject, with a typed
// InvalidScheduleError naming the knob, every schedule axis it does not
// expose and every out-of-range value of the axes it does — the crisp
// edge of the space the autoscheduler's enumerator and the
// schedule-space lint sweep both rely on.
func TestInvalidScheduleKnobs(t *testing.T) {
	// 17x17, kernel 3, stride 2: every family compiles quickly and the
	// stride keeps patches non-consecutive (Sw != 1), which makes
	// saturate=full invalid on the kernels that expose the axis.
	p := isa.ConvParams{Ih: 17, Iw: 17, Kh: 3, Kw: 3, Sh: 2, Sw: 2}

	tests := []struct {
		kernel string
		sp     ScheduleParams
		want   string // substring of the InvalidScheduleError
	}{
		// maxpool_fwd/standard: direct forward, no scaling epilogue.
		{"maxpool_fwd/standard", ScheduleParams{RepeatChunk: 16}, "no repeat_chunk axis"},
		{"maxpool_fwd/standard", ScheduleParams{Gather: GatherMTE}, "no gather axis"},
		{"maxpool_fwd/standard", ScheduleParams{Epilogue: EpiDeferred}, "no epilogue axis"},
		{"maxpool_fwd/standard", ScheduleParams{Saturate: SatFull}, "saturate=full needs consecutive patches"},
		{"maxpool_fwd/standard", ScheduleParams{Saturate: 9}, "unknown mask-width choice"},
		{"maxpool_fwd/standard", ScheduleParams{Buffers: 3}, "buffers=3: want 1 or 2"},
		{"maxpool_fwd/standard", ScheduleParams{Band: -1}, "band=-1 outside"},
		{"maxpool_fwd/standard", ScheduleParams{Band: 1 << 20}, "outside [1,"},

		// maxpool_fwd/im2col: fractal forward, no scaling epilogue.
		{"maxpool_fwd/im2col", ScheduleParams{Saturate: SatNarrow}, "no saturate axis"},
		{"maxpool_fwd/im2col", ScheduleParams{Gather: GatherMTE}, "no gather axis"},
		{"maxpool_fwd/im2col", ScheduleParams{Epilogue: EpiDeferred}, "no epilogue axis"},
		{"maxpool_fwd/im2col", ScheduleParams{Buffers: 7}, "buffers=7: want 1 or 2"},
		{"maxpool_fwd/im2col", ScheduleParams{Band: 1 << 20}, "outside [1,"},

		// maxpool_fwd/expansion: exposes gather, validates its values.
		{"maxpool_fwd/expansion", ScheduleParams{Saturate: SatNarrow}, "no saturate axis"},
		{"maxpool_fwd/expansion", ScheduleParams{RepeatChunk: 16}, "no repeat_chunk axis"},
		{"maxpool_fwd/expansion", ScheduleParams{Epilogue: EpiDeferred}, "no epilogue axis"},
		{"maxpool_fwd/expansion", ScheduleParams{Gather: 5}, "unknown gather engine"},

		// maxpool_fwd/xysplit: no searchable axes beyond band/buffers.
		{"maxpool_fwd/xysplit", ScheduleParams{Saturate: SatNarrow}, "no saturate axis"},
		{"maxpool_fwd/xysplit", ScheduleParams{RepeatChunk: 16}, "no repeat_chunk axis"},
		{"maxpool_fwd/xysplit", ScheduleParams{Epilogue: EpiDeferred}, "no epilogue axis"},
		{"maxpool_fwd/xysplit", ScheduleParams{Gather: GatherMTE}, "no gather axis"},

		// maxpool_fwd_argmax/standard: direct with mask, saturate axis.
		{"maxpool_fwd_argmax/standard", ScheduleParams{RepeatChunk: 16}, "no repeat_chunk axis"},
		{"maxpool_fwd_argmax/standard", ScheduleParams{Epilogue: EpiDeferred}, "no epilogue axis"},
		{"maxpool_fwd_argmax/standard", ScheduleParams{Gather: GatherMTE}, "no gather axis"},
		{"maxpool_fwd_argmax/standard", ScheduleParams{Saturate: SatFull}, "saturate=full needs consecutive patches"},
		{"maxpool_fwd_argmax/standard", ScheduleParams{Saturate: 9}, "unknown mask-width choice"},

		// maxpool_fwd_argmax/im2col: fractal with mask, repeat_chunk only.
		{"maxpool_fwd_argmax/im2col", ScheduleParams{Saturate: SatNarrow}, "no saturate axis"},
		{"maxpool_fwd_argmax/im2col", ScheduleParams{Epilogue: EpiDeferred}, "no epilogue axis"},
		{"maxpool_fwd_argmax/im2col", ScheduleParams{Gather: GatherMTE}, "no gather axis"},

		// maxpool_bwd: both variants share planBackward's validation.
		{"maxpool_bwd/standard", ScheduleParams{Saturate: SatNarrow}, "no saturate axis"},
		{"maxpool_bwd/standard", ScheduleParams{Epilogue: EpiDeferred}, "no epilogue axis"},
		{"maxpool_bwd/standard", ScheduleParams{Gather: GatherMTE}, "no gather axis"},
		{"maxpool_bwd/col2im", ScheduleParams{Saturate: SatNarrow}, "no saturate axis"},
		{"maxpool_bwd/col2im", ScheduleParams{Epilogue: EpiDeferred}, "no epilogue axis"},
		{"maxpool_bwd/col2im", ScheduleParams{Gather: GatherMTE}, "no gather axis"},
		{"maxpool_bwd/col2im", ScheduleParams{Buffers: 3}, "buffers=3: want 1 or 2"},

		// avgpool_fwd/standard: scaling epilogue exposed, values checked.
		{"avgpool_fwd/standard", ScheduleParams{RepeatChunk: 16}, "no repeat_chunk axis"},
		{"avgpool_fwd/standard", ScheduleParams{Gather: GatherMTE}, "no gather axis"},
		{"avgpool_fwd/standard", ScheduleParams{Epilogue: 9}, "unknown epilogue placement"},
		{"avgpool_fwd/standard", ScheduleParams{Saturate: SatFull}, "saturate=full needs consecutive patches"},

		// avgpool_fwd/im2col: fractal with scaling epilogue.
		{"avgpool_fwd/im2col", ScheduleParams{Saturate: SatNarrow}, "no saturate axis"},
		{"avgpool_fwd/im2col", ScheduleParams{Gather: GatherMTE}, "no gather axis"},
		{"avgpool_fwd/im2col", ScheduleParams{Epilogue: 9}, "unknown epilogue placement"},

		// avgpool_fwd/cube: the Cube-unit mapping has no schedule axes at
		// all — the lowering is fixed by the MMAD dataflow.
		{"avgpool_fwd/cube", ScheduleParams{Band: 4}, "no band axis"},
		{"avgpool_fwd/cube", ScheduleParams{Buffers: 1}, "no buffers axis"},
		{"avgpool_fwd/cube", ScheduleParams{Saturate: SatNarrow}, "no saturate axis"},
		{"avgpool_fwd/cube", ScheduleParams{RepeatChunk: 16}, "no repeat_chunk axis"},
		{"avgpool_fwd/cube", ScheduleParams{Epilogue: EpiDeferred}, "no epilogue axis"},
		{"avgpool_fwd/cube", ScheduleParams{Gather: GatherMTE}, "no gather axis"},

		// avgpool_bwd: both variants share one validation head.
		{"avgpool_bwd/standard", ScheduleParams{Saturate: SatNarrow}, "no saturate axis"},
		{"avgpool_bwd/standard", ScheduleParams{Epilogue: EpiDeferred}, "no epilogue axis"},
		{"avgpool_bwd/standard", ScheduleParams{Gather: GatherMTE}, "no gather axis"},
		{"avgpool_bwd/col2im", ScheduleParams{Saturate: SatNarrow}, "no saturate axis"},
		{"avgpool_bwd/col2im", ScheduleParams{Epilogue: EpiDeferred}, "no epilogue axis"},
		{"avgpool_bwd/col2im", ScheduleParams{Gather: GatherMTE}, "no gather axis"},
		{"avgpool_bwd/col2im", ScheduleParams{Band: -3}, "band=-3 outside"},
	}
	for _, tt := range tests {
		name := tt.kernel + "/" + tt.sp.String()
		t.Run(name, func(t *testing.T) {
			_, err := CompileKernel(tt.kernel, Spec{}, p, tt.sp)
			if err == nil {
				t.Fatalf("CompileKernel(%s, %+v) succeeded, want InvalidScheduleError %q", tt.kernel, tt.sp, tt.want)
			}
			if !IsInvalidSchedule(err) {
				t.Fatalf("CompileKernel(%s, %+v) = %v, want a typed *InvalidScheduleError", tt.kernel, tt.sp, err)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("CompileKernel(%s, %+v) = %q, want substring %q", tt.kernel, tt.sp, err, tt.want)
			}
		})
	}
}

// TestValidScheduleKnobs is the positive contrast: the axes each
// lowering does expose compile cleanly at their searched values, so the
// rejections above are crisp edges rather than blanket refusals.
func TestValidScheduleKnobs(t *testing.T) {
	p := isa.ConvParams{Ih: 17, Iw: 17, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	tests := []struct {
		kernel string
		sp     ScheduleParams
	}{
		{"maxpool_fwd/standard", ScheduleParams{Saturate: SatNarrow}},
		{"maxpool_fwd/standard", ScheduleParams{Buffers: 1}},
		{"maxpool_fwd/im2col", ScheduleParams{RepeatChunk: 16}},
		{"maxpool_fwd/expansion", ScheduleParams{Gather: GatherMTE}},
		{"maxpool_fwd_argmax/standard", ScheduleParams{Saturate: SatNarrow}},
		{"maxpool_fwd_argmax/im2col", ScheduleParams{RepeatChunk: 16}},
		{"maxpool_bwd/col2im", ScheduleParams{RepeatChunk: 16}},
		{"avgpool_fwd/standard", ScheduleParams{Epilogue: EpiDeferred}},
		{"avgpool_fwd/im2col", ScheduleParams{Epilogue: EpiDeferred}},
		{"avgpool_bwd/col2im", ScheduleParams{Buffers: 1}},
	}
	for _, tt := range tests {
		name := tt.kernel + "/" + tt.sp.String()
		t.Run(name, func(t *testing.T) {
			pl, err := CompileKernel(tt.kernel, Spec{}, p, tt.sp)
			if err != nil {
				t.Fatalf("CompileKernel(%s, %+v): %v", tt.kernel, tt.sp, err)
			}
			if pl.Prog == nil || pl.Prog.Len() == 0 {
				t.Fatalf("CompileKernel(%s, %+v) produced an empty program", tt.kernel, tt.sp)
			}
		})
	}
}
