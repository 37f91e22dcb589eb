// Package ops implements the paper's contribution: DaVinci pooling kernels
// in every variant evaluated in §V–§VI, plus convolution on the Cube unit
// as the substrate the Im2Col/Col2Im instructions were designed for.
//
// Every kernel operates on one (1, 1, Ih, Iw, C0) fractal tile — the unit
// the paper's schedules assign to one AI Core after dividing the
// computation on the C1 dimension (§V-A). internal/chip parallelizes tiles
// across cores.
//
// Kernels are split into plan and execute (see plan.go): a plan* function
// compiles the shape-dependent schedule into an immutable Plan — the
// lowered cce.Program (the CCE C instruction stream described in the paper
// for each variant) plus its buffer layout — and Plan.Run replays it on a
// core for one tile's data, returning the result plus timing stats.
//
// All variants share the zero-padding convention of the Im2Col instruction:
// padded positions contribute zeros (see internal/ref).
package ops

import (
	"errors"
	"fmt"

	"davinci/internal/aicore"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/tensor"
)

// Block is the byte size of one C0 row (16 Float16 elements).
const Block = isa.ElemsPerBlock * fp16.Bytes

// checkTile validates the single-tile input convention.
func checkTile(in *tensor.Tensor, p isa.ConvParams) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(in.Shape) != 5 || in.Shape[0] != 1 || in.Shape[1] != 1 || in.Shape[4] != tensor.C0 {
		return fmt.Errorf("ops: want a (1,1,H,W,%d) tile, got %v", tensor.C0, in.Shape)
	}
	if in.Shape[2] != p.Ih || in.Shape[3] != p.Iw {
		return fmt.Errorf("ops: tile %v does not match params (%d,%d)", in.Shape, p.Ih, p.Iw)
	}
	return nil
}

// materializePadding returns the input with spatial zero padding written
// out, plus the equivalent padding-free parameters. Direct (non-Im2Col)
// kernels consume padded tiles, because only the Im2Col/Col2Im
// instructions can synthesize padding during the load (§III-C: "it is also
// possible to add padding during the Im2Col load").
func materializePadding(in *tensor.Tensor, p isa.ConvParams) (*tensor.Tensor, isa.ConvParams) {
	if p.Pt == 0 && p.Pb == 0 && p.Pl == 0 && p.Pr == 0 {
		return in, p
	}
	return tensor.PadFractalHW(in, p.Pt, p.Pb, p.Pl, p.Pr), foldPadding(p)
}

// foldPadding returns the padding-free parameters equivalent to p once the
// spatial padding has been written into the tile: the shape-only half of
// materializePadding, used at plan-compile time when no tensor exists yet.
func foldPadding(p isa.ConvParams) isa.ConvParams {
	pp := p
	pp.Ih += p.Pt + p.Pb
	pp.Iw += p.Pl + p.Pr
	pp.Pt, pp.Pb, pp.Pl, pp.Pr = 0, 0, 0, 0
	return pp
}

// wantInputs checks the input arity handed to a plan's bind step.
func wantInputs(name string, n int, inputs []*tensor.Tensor) error {
	if len(inputs) != n {
		return fmt.Errorf("ops: %s: want %d input tensor(s), got %d", name, n, len(inputs))
	}
	return nil
}

// bindTile validates the single-tile input convention for plans whose
// program consumes the raw tile (the Im2Col instruction synthesizes the
// padding during the load).
func bindTile(name string, p isa.ConvParams) bindFunc {
	return func(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
		if err := wantInputs(name, 1, inputs); err != nil {
			return nil, err
		}
		if err := checkTile(inputs[0], p); err != nil {
			return nil, err
		}
		return inputs, nil
	}
}

// bindPaddedTile is bindTile for direct (non-Im2Col) plans, which consume
// tiles with the spatial zero padding written out.
func bindPaddedTile(name string, p isa.ConvParams) bindFunc {
	return func(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
		if err := wantInputs(name, 1, inputs); err != nil {
			return nil, err
		}
		if err := checkTile(inputs[0], p); err != nil {
			return nil, err
		}
		padded, _ := materializePadding(inputs[0], p)
		return []*tensor.Tensor{padded}, nil
	}
}

// maxBand returns the largest b in [1, limit] with need(b) <= avail, where
// need is non-decreasing. It returns 0 when even b == 1 does not fit.
func maxBand(avail, limit int, need func(int) int) int {
	if limit < 1 || need(1) > avail {
		return 0
	}
	lo, hi := 1, limit
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if need(mid) <= avail {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// ubAvail returns the allocatable UB bytes with headroom for alignment.
func ubAvail(core *aicore.Core) int {
	return core.Mem.Space(isa.UB).Free() - 8*Block
}

// ErrCapacity is wrapped by every compile error that means the tile does
// not fit a core's on-chip buffers at this shape and must be tiled
// further — a shape limit, as opposed to a bug or an invalid schedule.
// Sweeps skip such shapes (test with errors.Is), as chip-level tiling
// would.
var ErrCapacity = errors.New("ops: tile exceeds on-chip capacity")

// capacityError is a capacity failure whose message names the buffer and
// the remedy; it unwraps to ErrCapacity.
type capacityError struct{ msg string }

func (e *capacityError) Error() string { return e.msg }
func (e *capacityError) Unwrap() error { return ErrCapacity }

func errCapacity(format string, args ...any) error {
	return &capacityError{msg: fmt.Sprintf(format, args...)}
}

// errTooLarge builds the error returned when a tile cannot be scheduled.
func errTooLarge(kernel string, p isa.ConvParams) error {
	return errCapacity("ops: %s: tile (%d,%d) kernel (%d,%d) does not fit the Unified Buffer even at band size 1; tile the input further",
		kernel, p.Ih, p.Iw, p.Kh, p.Kw)
}
