// Package isa defines the simulated DaVinci AI Core instruction set used by
// this reproduction: vector instructions with the 128-bit lane mask and
// repeat parameter, memory-transfer (MTE) copies, the Storage Conversion
// Unit's Im2Col and Col2Im instructions, and the Cube unit's MMAD
// (paper §III).
//
// Instructions are plain data. Functional execution lives in
// internal/aicore; layout math shared with reference models lives in
// internal/scu. Cycle costs come from the CostModel in cost.go.
package isa

import (
	"fmt"
	"math/bits"
)

// Pipe identifies one of the AI Core's execution pipelines. Instructions on
// different pipes may overlap in time subject to data hazards; instructions
// on the same pipe issue in order (paper §III-A, Fig. 4).
type Pipe int

const (
	// PipeScalar is the Scalar Unit (control flow, addressing).
	PipeScalar Pipe = iota
	// PipeVector is the Vector Unit (vector arithmetic and Col2Im).
	PipeVector
	// PipeCube is the Cube Unit (fractal matrix multiply).
	PipeCube
	// PipeMTE1 moves data between local buffers (L1 -> L0A/L0B/UB) and
	// hosts the Im2Col load transform.
	PipeMTE1
	// PipeMTE2 moves data from global memory into local buffers.
	PipeMTE2
	// PipeMTE3 moves data from local buffers out to global memory.
	PipeMTE3
	// NumPipes is the number of pipelines.
	NumPipes
)

var pipeNames = [...]string{"SCALAR", "VEC", "CUBE", "MTE1", "MTE2", "MTE3"}

func (p Pipe) String() string {
	if p < 0 || int(p) >= len(pipeNames) {
		return fmt.Sprintf("Pipe(%d)", int(p))
	}
	return pipeNames[p]
}

// BufID identifies a memory in the AI Core address map. Each buffer has its
// own address space (scratch-pad organization, paper §III-A).
type BufID int

const (
	// GM is global memory (DDR/HBM/L2 are indistinguishable from the AI
	// Core's perspective; the paper draws them as a single node).
	GM BufID = iota
	// L1 is the 1 MiB input buffer feeding the SCU.
	L1
	// L0A holds the Cube unit's left operand fractals.
	L0A
	// L0B holds the Cube unit's right operand fractals.
	L0B
	// L0C holds the Cube unit's fp32 accumulator output.
	L0C
	// UB is the Unified Buffer serving the Vector and Scalar units.
	UB
	// NumBufs is the number of address spaces.
	NumBufs
)

var bufNames = [...]string{"GM", "L1", "L0A", "L0B", "L0C", "UB"}

func (b BufID) String() string {
	if b < 0 || int(b) >= len(bufNames) {
		return fmt.Sprintf("BufID(%d)", int(b))
	}
	return bufNames[b]
}

// Architectural constants of the vector datapath.
const (
	// BlockBytes is the vector access granularity: one 32-byte block.
	BlockBytes = 32
	// ElemsPerBlock is the number of Float16 elements per block.
	ElemsPerBlock = 16
	// BlocksPerRepeat is the number of blocks one repeat iteration covers.
	BlocksPerRepeat = 8
	// LanesPerRepeat is the number of Float16 lanes one repeat processes
	// (the 128-bit mask register has one bit per lane, paper §III-A).
	LanesPerRepeat = BlocksPerRepeat * ElemsPerBlock
)

// Mask is the 128-bit vector lane mask; bit i enables lane i.
type Mask [2]uint64

// FullMask enables all 128 lanes.
func FullMask() Mask { return Mask{^uint64(0), ^uint64(0)} }

// MaskFirstN enables the first n lanes (0 <= n <= 128).
func MaskFirstN(n int) Mask {
	if n < 0 || n > LanesPerRepeat {
		panic(fmt.Sprintf("isa: mask width %d out of range", n))
	}
	var m Mask
	switch {
	case n >= 128:
		return FullMask()
	case n > 64:
		m[0] = ^uint64(0)
		m[1] = (uint64(1) << (n - 64)) - 1
	case n == 64:
		m[0] = ^uint64(0)
	default:
		m[0] = (uint64(1) << n) - 1
	}
	return m
}

// Bit reports whether lane i is enabled.
func (m Mask) Bit(i int) bool { return m[i/64]>>(i%64)&1 == 1 }

// Count returns the number of enabled lanes.
func (m Mask) Count() int { return bits.OnesCount64(m[0]) + bits.OnesCount64(m[1]) }

// highLane returns the highest enabled lane, or -1 when none is.
func (m Mask) highLane() int {
	if m[1] != 0 {
		return 64 + bits.Len64(m[1]) - 1
	}
	return bits.Len64(m[0]) - 1
}

// Region is a byte range in one buffer, used for hazard tracking.
type Region struct {
	Buf BufID
	Off int // first byte
	End int // one past last byte
}

// Overlaps reports whether two regions intersect.
func (r Region) Overlaps(o Region) bool {
	return r.Buf == o.Buf && r.Off < o.End && o.Off < r.End
}

func (r Region) String() string {
	return fmt.Sprintf("%v[%d:%d)", r.Buf, r.Off, r.End)
}

// Instr is one AI Core instruction. Implementations are the *Instr structs
// in this package.
type Instr interface {
	// Pipe returns the pipeline the instruction issues on.
	Pipe() Pipe
	// Cycles returns the cost charged by the timing model.
	Cycles(c *CostModel) int64
	// Reads returns conservative source byte ranges for hazard tracking.
	Reads() []Region
	// Writes returns conservative destination byte ranges.
	Writes() []Region
	// Validate reports structural problems (bad strides, repeat counts).
	Validate() error
	// String renders a compact trace line.
	String() string
}
