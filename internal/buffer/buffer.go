// Package buffer models the AI Core's scratch-pad memories and global
// memory. Each buffer is a separate address space that the kernel manages
// explicitly — there is no hardware cache coherence; the programmer
// "needs to specify which data should be brought to each buffer"
// (paper §III-A).
package buffer

import (
	"fmt"

	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/tensor"
)

// Align is the allocation alignment: vector operands address 32-byte blocks.
const Align = 32

// Config carries the buffer capacities of one AI Core. Zero values take the
// Ascend 910 defaults.
type Config struct {
	L1Size  int
	L0ASize int
	L0BSize int
	L0CSize int
	UBSize  int
	GMSize  int // initial global-memory reservation; grows on demand
}

// Ascend 910 AI Core capacities (DaVinci Hot Chips presentation).
const (
	DefaultL1Size  = 1 << 20 // 1 MiB
	DefaultL0ASize = 64 << 10
	DefaultL0BSize = 64 << 10
	DefaultL0CSize = 256 << 10
	DefaultUBSize  = 256 << 10
	defaultGMSize  = 1 << 20
)

// Normalized returns the config with every zero field replaced by its
// Ascend 910 default. Plan-cache keys (internal/ops) use the normalized
// form so that an explicit default and a zero value map to the same plan.
func (c Config) Normalized() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.L1Size, DefaultL1Size)
	def(&c.L0ASize, DefaultL0ASize)
	def(&c.L0BSize, DefaultL0BSize)
	def(&c.L0CSize, DefaultL0CSize)
	def(&c.UBSize, DefaultUBSize)
	def(&c.GMSize, defaultGMSize)
	return c
}

// Capacities returns the capacity in bytes of each address space implied
// by the config (defaults applied). Global memory reports 0: it grows on
// demand, so no static bound applies.
func (c Config) Capacities() [isa.NumBufs]int {
	c = c.withDefaults()
	var caps [isa.NumBufs]int
	caps[isa.L1] = c.L1Size
	caps[isa.L0A] = c.L0ASize
	caps[isa.L0B] = c.L0BSize
	caps[isa.L0C] = c.L0CSize
	caps[isa.UB] = c.UBSize
	return caps
}

// ErrNoSpace is wrapped by allocation failures.
var ErrNoSpace = fmt.Errorf("buffer: out of space")

// Space is one address space with a bump allocator.
type Space struct {
	ID       isa.BufID
	size     int
	data     []byte
	off      int
	growable bool // only global memory grows
}

// NewSpace creates a fixed-capacity scratch-pad space.
func NewSpace(id isa.BufID, size int) *Space {
	return &Space{ID: id, size: size, data: make([]byte, size)}
}

// Size returns the capacity in bytes (current capacity for global memory).
func (s *Space) Size() int { return s.size }

// Used returns the bytes currently allocated.
func (s *Space) Used() int { return s.off }

// Free returns the bytes still available.
func (s *Space) Free() int { return s.size - s.off }

// Data exposes the raw backing store (nil in a layout).
func (s *Space) Data() []byte { return s.data }

// Alloc reserves n bytes, 32-byte aligned, and returns the address.
func (s *Space) Alloc(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("buffer: negative allocation %d in %v", n, s.ID)
	}
	addr := (s.off + Align - 1) / Align * Align
	if addr+n > s.size {
		if !s.growable {
			return 0, fmt.Errorf("%w: %v needs %d bytes, %d free of %d",
				ErrNoSpace, s.ID, n, s.size-addr, s.size)
		}
		newSize := s.size * 2
		for addr+n > newSize {
			newSize *= 2
		}
		if s.data != nil { // a layout (NewLayout) has no store to grow
			grown := make([]byte, newSize)
			copy(grown, s.data)
			s.data = grown
		}
		s.size = newSize
	}
	s.off = addr + n
	return addr, nil
}

// MustAlloc is Alloc that panics on failure; kernels use it after sizing
// tiles against the capacity, so failure is a programming error.
func (s *Space) MustAlloc(n int) int {
	addr, err := s.Alloc(n)
	if err != nil {
		panic(err)
	}
	return addr
}

// Reset releases all allocations (data contents are left in place, like
// real scratch-pads between kernel invocations).
func (s *Space) Reset() { s.off = 0 }

// Set is the complete memory system of one AI Core. It implements the
// memory view the simulator executes against.
type Set struct {
	spaces [isa.NumBufs]*Space
	cfg    Config
}

// NewSet builds the memory system from a config.
func NewSet(cfg Config) *Set { return newSet(cfg, true) }

// NewLayout builds a memory system that tracks allocation offsets and
// capacities only, with no backing store: compilers lay out a program
// against it without allocating the memory it will run in. Any data
// access through it panics.
func NewLayout(cfg Config) *Set { return newSet(cfg, false) }

func newSet(cfg Config, backed bool) *Set {
	cfg = cfg.withDefaults()
	s := &Set{cfg: cfg}
	sizes := [isa.NumBufs]int{
		isa.GM: cfg.GMSize, isa.L1: cfg.L1Size, isa.L0A: cfg.L0ASize,
		isa.L0B: cfg.L0BSize, isa.L0C: cfg.L0CSize, isa.UB: cfg.UBSize,
	}
	for id, size := range sizes {
		sp := &Space{ID: isa.BufID(id), size: size, growable: id == int(isa.GM)}
		if backed {
			sp.data = make([]byte, size)
		}
		s.spaces[id] = sp
	}
	return s
}

// Space returns the address space for id.
func (s *Set) Space(id isa.BufID) *Space { return s.spaces[id] }

// Config returns the (normalized) configuration the set was built from.
func (s *Set) Config() Config { return s.cfg }

// Capacities returns the capacity in bytes of each address space. Global
// memory reports 0: it grows on demand, so no static bound applies.
func (s *Set) Capacities() [isa.NumBufs]int {
	var caps [isa.NumBufs]int
	for id := isa.BufID(0); id < isa.NumBufs; id++ {
		if id != isa.GM {
			caps[id] = s.spaces[id].size
		}
	}
	return caps
}

// Mem returns the raw backing store for id.
func (s *Set) Mem(id isa.BufID) []byte { return s.spaces[id].data }

// ResetLocal releases all scratch-pad allocations, keeping global memory.
func (s *Set) ResetLocal() {
	for id := isa.BufID(0); id < isa.NumBufs; id++ {
		if id != isa.GM {
			s.spaces[id].Reset()
		}
	}
}

// PlaceTensor allocates room for t in space id and copies its data in,
// returning the base address.
func (s *Set) PlaceTensor(id isa.BufID, t *tensor.Tensor) (int, error) {
	addr, err := s.spaces[id].Alloc(t.Bytes())
	if err != nil {
		return 0, err
	}
	copy(s.spaces[id].data[addr:addr+t.Bytes()], t.Data)
	return addr, nil
}

// ReadTensor copies a tensor of the given shape out of space id at addr.
func (s *Set) ReadTensor(id isa.BufID, addr int, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	copy(t.Data, s.spaces[id].data[addr:addr+t.Bytes()])
	return t
}

// ZeroRange clears bytes [addr, addr+n) in space id.
func (s *Set) ZeroRange(id isa.BufID, addr, n int) {
	b := s.spaces[id].data[addr : addr+n]
	for i := range b {
		b[i] = 0
	}
}

// FillRange writes n Float16 copies of v starting at addr in space id.
func (s *Set) FillRange(id isa.BufID, addr, n int, v fp16.Float16) {
	fp16.Fill(s.spaces[id].data, addr, n, v)
}
