package isa

import "fmt"

// EventsPerPair is the number of event flags available between each
// ordered pair of pipelines, as in real CCE C's set_flag/wait_flag
// synchronization.
const EventsPerPair = 16

// SetFlagInstr signals event Event from SrcPipe to DstPipe after every
// earlier instruction on SrcPipe has completed. Flags are counting: each
// set deposits one token.
type SetFlagInstr struct {
	SrcPipe Pipe
	DstPipe Pipe
	Event   int
}

// Pipe returns the issuing pipeline.
func (s *SetFlagInstr) Pipe() Pipe { return s.SrcPipe }

// Cycles returns the flag cost.
func (s *SetFlagInstr) Cycles(c *CostModel) int64 { return c.Flag }

// Reads returns no region.
func (s *SetFlagInstr) Reads() Regions { return Regions{} }

// Writes returns no region.
func (s *SetFlagInstr) Writes() Regions { return Regions{} }

// Validate checks the pipe pair and event id.
func (s *SetFlagInstr) Validate() error { return validateFlag(s.SrcPipe, s.DstPipe, s.Event) }

func (s *SetFlagInstr) String() string {
	return fmt.Sprintf("set_flag %v->%v ev=%d", s.SrcPipe, s.DstPipe, s.Event)
}

// WaitFlagInstr blocks DstPipe until a token for (SrcPipe -> DstPipe,
// Event) is available, then consumes it.
type WaitFlagInstr struct {
	SrcPipe Pipe
	DstPipe Pipe
	Event   int
}

// Pipe returns the waiting pipeline.
func (w *WaitFlagInstr) Pipe() Pipe { return w.DstPipe }

// Cycles returns the flag cost (the wait itself; stall time comes from the
// schedule).
func (w *WaitFlagInstr) Cycles(c *CostModel) int64 { return c.Flag }

// Reads returns no region.
func (w *WaitFlagInstr) Reads() Regions { return Regions{} }

// Writes returns no region.
func (w *WaitFlagInstr) Writes() Regions { return Regions{} }

// Validate checks the pipe pair and event id.
func (w *WaitFlagInstr) Validate() error { return validateFlag(w.SrcPipe, w.DstPipe, w.Event) }

func (w *WaitFlagInstr) String() string {
	return fmt.Sprintf("wait_flag %v->%v ev=%d", w.SrcPipe, w.DstPipe, w.Event)
}

func validateFlag(src, dst Pipe, event int) error {
	if src < 0 || src >= NumPipes || dst < 0 || dst >= NumPipes {
		return fmt.Errorf("isa: flag pipe out of range (%v -> %v)", src, dst)
	}
	if src == dst {
		return fmt.Errorf("isa: flag between %v and itself (in-order issue already orders it)", src)
	}
	if event < 0 || event >= EventsPerPair {
		return fmt.Errorf("isa: flag event %d out of range [0,%d)", event, EventsPerPair)
	}
	return nil
}
