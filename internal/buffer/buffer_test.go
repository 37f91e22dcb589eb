package buffer

import (
	"errors"
	"testing"

	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/tensor"
)

func TestDefaults(t *testing.T) {
	s := NewSet(Config{})
	if got := s.Space(isa.L1).Size(); got != DefaultL1Size {
		t.Errorf("L1 size %d", got)
	}
	if got := s.Space(isa.UB).Size(); got != DefaultUBSize {
		t.Errorf("UB size %d", got)
	}
	if got := s.Space(isa.L0A).Size(); got != DefaultL0ASize {
		t.Errorf("L0A size %d", got)
	}
}

func TestAllocAlignmentAndExhaustion(t *testing.T) {
	s := NewSpace(isa.UB, 128)
	a, err := s.Alloc(10)
	if err != nil || a != 0 {
		t.Fatalf("first alloc %d, %v", a, err)
	}
	b, err := s.Alloc(32)
	if err != nil || b != 32 {
		t.Fatalf("second alloc %d (want 32-aligned), %v", b, err)
	}
	if s.Used() != 64 || s.Free() != 64 {
		t.Errorf("used=%d free=%d", s.Used(), s.Free())
	}
	if _, err := s.Alloc(65); !errors.Is(err, ErrNoSpace) {
		t.Errorf("oversized alloc err = %v, want ErrNoSpace", err)
	}
	if _, err := s.Alloc(64); err != nil {
		t.Errorf("exact-fit alloc failed: %v", err)
	}
	s.Reset()
	if s.Used() != 0 {
		t.Error("Reset did not release")
	}
	if _, err := s.Alloc(-1); err == nil {
		t.Error("negative alloc accepted")
	}
}

func TestMustAllocPanics(t *testing.T) {
	s := NewSpace(isa.UB, 32)
	defer func() {
		if recover() == nil {
			t.Error("MustAlloc over capacity did not panic")
		}
	}()
	s.MustAlloc(64)
}

func TestGlobalMemoryGrows(t *testing.T) {
	s := NewSet(Config{GMSize: 1024})
	gm := s.Space(isa.GM)
	if _, err := gm.Alloc(4096); err != nil {
		t.Fatalf("GM grow failed: %v", err)
	}
	if gm.Size() < 4096 {
		t.Errorf("GM size %d after grow", gm.Size())
	}
	// Data written before growth must survive.
	s2 := NewSet(Config{GMSize: 64})
	a, _ := s2.Space(isa.GM).Alloc(32)
	s2.Mem(isa.GM)[a] = 0xAB
	if _, err := s2.Space(isa.GM).Alloc(1 << 12); err != nil {
		t.Fatal(err)
	}
	if s2.Mem(isa.GM)[a] != 0xAB {
		t.Error("growth lost data")
	}
}

func TestPlaceAndReadTensor(t *testing.T) {
	s := NewSet(Config{})
	x := tensor.FromFloat32s([]float32{1, 2, 3, 4}, 2, 2)
	addr, err := s.PlaceTensor(isa.GM, x)
	if err != nil {
		t.Fatal(err)
	}
	y := s.ReadTensor(isa.GM, addr, 2, 2)
	if tensor.MaxAbsDiff(x, y) != 0 {
		t.Error("round trip mismatch")
	}
}

func TestResetLocalKeepsGM(t *testing.T) {
	s := NewSet(Config{})
	gmAddr, _ := s.Space(isa.GM).Alloc(64)
	s.Space(isa.UB).MustAlloc(64)
	s.ResetLocal()
	if s.Space(isa.UB).Used() != 0 {
		t.Error("UB not reset")
	}
	if s.Space(isa.GM).Used() == 0 {
		t.Error("GM was reset")
	}
	_ = gmAddr
}

func TestZeroAndFillRange(t *testing.T) {
	s := NewSet(Config{})
	s.FillRange(isa.UB, 64, 4, fp16.One)
	if got := fp16.Load(s.Mem(isa.UB), 64+6); got != fp16.One {
		t.Errorf("FillRange wrote %#04x", got)
	}
	s.ZeroRange(isa.UB, 64, 8)
	if got := fp16.Load(s.Mem(isa.UB), 64); got != fp16.Zero {
		t.Errorf("ZeroRange left %#04x", got)
	}
}

// TestLayoutTracksWithoutMemory: a layout hands out the addresses a
// backed set of the same config would, grows global memory the same way,
// and holds no memory, so a data access through it panics.
func TestLayoutTracksWithoutMemory(t *testing.T) {
	cfg := Config{GMSize: 1024}
	layout, set := NewLayout(cfg), NewSet(cfg)
	for _, n := range []int{10, 100, 4096} {
		for _, id := range []isa.BufID{isa.GM, isa.UB} {
			a, errA := layout.Space(id).Alloc(n)
			b, errB := set.Space(id).Alloc(n)
			if a != b || (errA == nil) != (errB == nil) {
				t.Fatalf("%v alloc %d: layout %d, %v; set %d, %v", id, n, a, errA, b, errB)
			}
		}
	}
	if got, want := layout.Space(isa.GM).Size(), set.Space(isa.GM).Size(); got != want {
		t.Errorf("layout GM size %d, set %d", got, want)
	}
	if layout.Capacities() != set.Capacities() {
		t.Errorf("capacities differ: %v vs %v", layout.Capacities(), set.Capacities())
	}
	for id := isa.BufID(0); id < isa.NumBufs; id++ {
		if layout.Mem(id) != nil {
			t.Errorf("layout %v has a backing store", id)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("reading a tensor out of a layout did not panic")
		}
	}()
	layout.ReadTensor(isa.GM, 0, 1, 4)
}
