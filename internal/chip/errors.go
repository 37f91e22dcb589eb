package chip

import (
	"errors"
	"fmt"

	"davinci/internal/aicore"
	"davinci/internal/isa"
)

// Sentinel categories for tile failures. Concrete errors are *TileError
// (and *CoreFailedError) values that wrap one of these, so callers can
// match the category with errors.Is and recover the detail with errors.As:
//
//	if errors.Is(err, chip.ErrTileHang) { ... }
//	var te *chip.TileError
//	if errors.As(err, &te) { use te.N, te.C1, te.Pipe ... }
var (
	// ErrTileFault: a tile attempt failed with a detected hardware fault
	// (transient, ECC).
	ErrTileFault = errors.New("tile fault")
	// ErrTileHang: a tile attempt could make no progress: a pipe stopped
	// retiring, or a wait_flag's set_flag never comes. The attempt fails
	// as soon as the hang is known, with no wall-clock wait.
	ErrTileHang = errors.New("tile hang")
	// ErrTilePanic: a tile worker panicked; the panic was recovered into
	// an error instead of crashing the process.
	ErrTilePanic = errors.New("tile panic")
	// ErrCoreFailed: a core exceeded its failure budget and was excluded,
	// or no healthy core remained for a tile.
	ErrCoreFailed = errors.New("core failed")
)

// TileError is one tile attempt's failure, carrying the tile identity the
// joined chip-level error needs to stay diagnosable.
type TileError struct {
	// N, C1 identify the tile.
	N, C1 int
	// Core is the simulated core index the attempt ran on.
	Core int
	// Attempt is the 1-based attempt number.
	Attempt int
	// Kind is the failure category: ErrTileFault, ErrTileHang or
	// ErrTilePanic.
	Kind error
	// Cause is the underlying error (injected fault, stuck pipe,
	// deadlock, panic value).
	Cause error
	// Pipe is the blocked pipe of a hang, when known.
	Pipe isa.Pipe
	// Flag is the (src pipe, dst pipe, event) triple of the unsatisfied
	// wait_flag of a hang; meaningful when HasFlag is true.
	Flag [3]int
	// HasFlag reports whether the hang was traced to a starved wait_flag.
	HasFlag bool
	// TraceTail holds the last scheduled instructions (with stall
	// attribution) before a hang, for post-mortem diagnosis.
	TraceTail []aicore.TraceEntry
	// Stack is the recovered goroutine stack of a panic.
	Stack []byte
}

func (e *TileError) Error() string {
	head := fmt.Sprintf("%v: tile (%d,%d) core %d attempt %d", e.Kind, e.N, e.C1, e.Core, e.Attempt)
	if errors.Is(e.Kind, ErrTileHang) {
		if e.HasFlag {
			return fmt.Sprintf("%s: pipe %v blocked on wait_flag(%v->%v, ev%d): %v",
				head, e.Pipe, isa.Pipe(e.Flag[0]), isa.Pipe(e.Flag[1]), e.Flag[2], e.Cause)
		}
		return fmt.Sprintf("%s: pipe %v blocked: %v", head, e.Pipe, e.Cause)
	}
	return fmt.Sprintf("%s: %v", head, e.Cause)
}

// Unwrap exposes both the category sentinel and the underlying cause, so
// errors.Is matches either.
func (e *TileError) Unwrap() []error { return []error{e.Kind, e.Cause} }

// CoreFailedError reports a core excluded after exceeding its failure
// budget (or a tile left with no healthy core to run on).
type CoreFailedError struct {
	// Core is the failed core's index.
	Core int
	// Failures is how many tile attempts failed on it.
	Failures int
}

func (e *CoreFailedError) Error() string {
	return fmt.Sprintf("core failed: core %d marked bad after %d failed attempts", e.Core, e.Failures)
}

func (e *CoreFailedError) Unwrap() error { return ErrCoreFailed }
