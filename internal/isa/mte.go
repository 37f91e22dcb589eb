package isa

import "fmt"

// CopyInstr is a memory-transfer (DMA) instruction moving NBurst bursts of
// BurstBytes each between two buffers. Gaps express strided tile loads
// (e.g. bringing a (H,W,C0) slice of a larger NC1HWC0 tensor into the UB).
// The pipe is derived from the endpoints (paper Fig. 4 datapaths):
// GM->local on MTE2, local->GM on MTE3, L1->L0/UB on MTE1, UB->UB on the
// vector pipe (it is a vcopy-style move).
type CopyInstr struct {
	SrcBuf     BufID
	SrcAddr    int
	DstBuf     BufID
	DstAddr    int
	NBurst     int // number of bursts, >= 1
	BurstBytes int // bytes per burst, >= 1
	SrcGap     int // bytes skipped in src between bursts
	DstGap     int // bytes skipped in dst between bursts
}

// Bytes returns the total payload moved.
func (m *CopyInstr) Bytes() int { return m.NBurst * m.BurstBytes }

// Pipe derives the pipeline from the endpoints.
func (m *CopyInstr) Pipe() Pipe {
	switch {
	case m.SrcBuf == GM:
		return PipeMTE2
	case m.DstBuf == GM:
		return PipeMTE3
	case m.SrcBuf == UB && m.DstBuf == UB:
		return PipeVector
	default:
		return PipeMTE1
	}
}

// Cycles charges issue overhead plus a bandwidth term.
func (m *CopyInstr) Cycles(c *CostModel) int64 {
	bw := c.DmaBytesPerCycle
	if m.Pipe() == PipeMTE1 || m.Pipe() == PipeVector {
		bw = c.LocalBytesPerCycle
	}
	cyc := c.MteIssue + int64((m.Bytes()+bw-1)/bw)
	// Each extra burst pays a small reissue cost (descriptor per burst).
	cyc += int64(m.NBurst-1) * c.MteBurst
	return cyc
}

// Reads returns the source span.
func (m *CopyInstr) Reads() Regions {
	end := m.SrcAddr + m.NBurst*m.BurstBytes + (m.NBurst-1)*m.SrcGap
	return one(Region{Buf: m.SrcBuf, Off: m.SrcAddr, End: end})
}

// Writes returns the destination span.
func (m *CopyInstr) Writes() Regions {
	end := m.DstAddr + m.NBurst*m.BurstBytes + (m.NBurst-1)*m.DstGap
	return one(Region{Buf: m.DstBuf, Off: m.DstAddr, End: end})
}

// Validate checks structural constraints.
func (m *CopyInstr) Validate() error {
	switch {
	case m.NBurst < 1 || m.BurstBytes < 1:
		return fmt.Errorf("isa: copy with %d bursts of %d bytes", m.NBurst, m.BurstBytes)
	case m.SrcGap < 0 || m.DstGap < 0:
		return fmt.Errorf("isa: negative copy gap")
	case m.SrcAddr < 0 || m.DstAddr < 0:
		return fmt.Errorf("isa: negative copy address")
	case m.SrcBuf == m.DstBuf && m.SrcBuf != UB && m.SrcBuf != GM:
		return fmt.Errorf("isa: copy within %v not supported", m.SrcBuf)
	}
	return nil
}

func (m *CopyInstr) String() string {
	return fmt.Sprintf("copy %v+%d -> %v+%d (%d x %dB)", m.SrcBuf, m.SrcAddr, m.DstBuf, m.DstAddr, m.NBurst, m.BurstBytes)
}

// ConvCopyInstr moves the Cube unit's fp32 accumulator tile from L0C to the
// UB, converting to Float16 on the way (the vconv datapath). Contiguous.
type ConvCopyInstr struct {
	SrcAddr int // byte offset in L0C (fp32 elements)
	DstAddr int // byte offset in UB (fp16 elements)
	Elems   int
}

// Pipe returns PipeVector: the conversion runs on the vector datapath.
func (m *ConvCopyInstr) Pipe() Pipe { return PipeVector }

// Cycles charges issue plus lane-rate conversion.
func (m *ConvCopyInstr) Cycles(c *CostModel) int64 {
	reps := (m.Elems + LanesPerRepeat - 1) / LanesPerRepeat
	return c.VecIssue + int64(reps)*c.VecPerRepeat
}

// Reads returns the fp32 source span.
func (m *ConvCopyInstr) Reads() Regions {
	return one(Region{Buf: L0C, Off: m.SrcAddr, End: m.SrcAddr + m.Elems*4})
}

// Writes returns the fp16 destination span.
func (m *ConvCopyInstr) Writes() Regions {
	return one(Region{Buf: UB, Off: m.DstAddr, End: m.DstAddr + m.Elems*2})
}

// Validate checks structural constraints.
func (m *ConvCopyInstr) Validate() error {
	if m.Elems < 1 || m.SrcAddr < 0 || m.DstAddr < 0 {
		return fmt.Errorf("isa: bad conv copy (%d elems)", m.Elems)
	}
	return nil
}

func (m *ConvCopyInstr) String() string {
	return fmt.Sprintf("vconv_f32f16 L0C+%d -> UB+%d (%d)", m.SrcAddr, m.DstAddr, m.Elems)
}

// ScalarInstr charges Scalar Unit work (loop control, address computation)
// that is not folded into other instructions' issue costs.
type ScalarInstr struct {
	Ops  int
	Note string
}

// Pipe returns PipeScalar.
func (s *ScalarInstr) Pipe() Pipe { return PipeScalar }

// Cycles charges ScalarOp per operation.
func (s *ScalarInstr) Cycles(c *CostModel) int64 { return int64(s.Ops) * c.ScalarOp }

// Reads returns no region.
func (s *ScalarInstr) Reads() Regions { return Regions{} }

// Writes returns no region.
func (s *ScalarInstr) Writes() Regions { return Regions{} }

// Validate checks structural constraints.
func (s *ScalarInstr) Validate() error {
	if s.Ops < 0 {
		return fmt.Errorf("isa: negative scalar op count")
	}
	return nil
}

func (s *ScalarInstr) String() string { return fmt.Sprintf("scalar x%d %s", s.Ops, s.Note) }

// BarrierInstr serializes: every later instruction waits for every earlier
// one (the pipe_barrier of CCE C).
type BarrierInstr struct{}

// Pipe returns PipeScalar (barriers are issued by the scalar unit).
func (b *BarrierInstr) Pipe() Pipe { return PipeScalar }

// Cycles returns the barrier cost.
func (b *BarrierInstr) Cycles(c *CostModel) int64 { return c.Barrier }

// Reads returns no region; barriers are handled specially by the
// scheduler.
func (b *BarrierInstr) Reads() Regions { return Regions{} }

// Writes returns no region.
func (b *BarrierInstr) Writes() Regions { return Regions{} }

// Validate always succeeds.
func (b *BarrierInstr) Validate() error { return nil }

func (b *BarrierInstr) String() string { return "pipe_barrier" }
