package fp16

import (
	"fmt"
	"testing"
)

// laneKernel pairs a slice kernel with the scalar function that is its
// oracle. Scalar kernels (AddsSlice, MulsSlice) take their scalar operand
// in the b position.
type laneKernel struct {
	name   string
	slice  func(dst, a, b []byte)
	oracle func(a, b Float16) Float16
}

func laneKernels() []laneKernel {
	return []laneKernel{
		{"MaxSlice", MaxSlice, Max},
		{"MinSlice", MinSlice, Min},
		{"AddSlice", AddSlice, Add},
		{"SubSlice", SubSlice, Sub},
		{"MulSlice", MulSlice, Mul},
		{"AddsSlice", func(dst, a, b []byte) { AddsSlice(dst, a, Load(b, 0)) }, Add},
		{"MulsSlice", func(dst, a, b []byte) { MulsSlice(dst, a, Load(b, 0)) }, Mul},
	}
}

// isScalar reports whether k takes its b operand as one broadcast scalar.
func (k laneKernel) isScalar() bool { return k.name == "AddsSlice" || k.name == "MulsSlice" }

// allValues returns every binary16 bit pattern, packed in order.
func allValues() []byte {
	b := make([]byte, 1<<16*Bytes)
	for v := 0; v < 1<<16; v++ {
		Store(b, v*Bytes, Float16(v))
	}
	return b
}

func fill(b []byte, h Float16) []byte {
	Fill(b, 0, len(b)/Bytes, h)
	return b
}

// boundaryValues covers every sign and exponent with the boundary
// mantissas, which includes ±0, ±Inf, the subnormal extremes and NaNs
// with low, quiet-bit and high payloads.
func boundaryValues() []Float16 {
	var vs []Float16
	for sign := 0; sign < 2; sign++ {
		for exp := 0; exp < 32; exp++ {
			for _, mant := range []int{0, 1, 0x200, 0x3ff} {
				vs = append(vs, Float16(sign<<15|exp<<10|mant))
			}
		}
	}
	return vs
}

// TestLaneKernelsStratified checks every kernel lane by lane against its
// scalar oracle on all 65,536 values of a against the boundary values in
// b. Both operands range over every special class, so each order of a
// special and an ordinary operand is covered. The build-tagged
// TestExhaustive* suite (lanes_exhaustive_test.go) covers every pair.
func TestLaneKernelsStratified(t *testing.T) {
	for _, k := range laneKernels() {
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			all := allValues()
			cst, dst := make([]byte, len(all)), make([]byte, len(all))
			for _, v := range boundaryValues() {
				k.slice(dst, all, fill(cst, v))
				for i := 0; i < len(dst); i += Bytes {
					x := Float16(i / Bytes)
					if got, want := Load(dst, i), k.oracle(x, v); got != want {
						t.Fatalf("%s(%#04x, %#04x) = %#04x, want %#04x", k.name, x, v, got, want)
					}
				}
			}
		})
	}
}

// sequential is the per-lane reference loop the kernels must reproduce
// under any aliasing.
func sequential(dst, a, b []byte, op func(a, b Float16) Float16) {
	for i := 0; i < len(dst); i += Bytes {
		Store(dst, i, op(Load(a, i), Load(b, i)))
	}
}

// TestLaneKernelsAliasing runs every kernel with dst equal to a or b, and
// with dst offset from a by ±2, ±4, ±6 and ±32 bytes inside one backing
// array, against the sequential per-lane loop on an identical copy.
func TestLaneKernelsAliasing(t *testing.T) {
	const lanes = 203 // odd, so a tail follows the whole words
	const n = lanes * Bytes
	seed := func() []byte {
		b := make([]byte, n+2*64)
		for i := 0; i < len(b); i += Bytes {
			// Finite and special values, including zero pairs and NaNs.
			v := Float16(i*0x9e37 + i>>3)
			switch i % 29 {
			case 3:
				v = NaN
			case 7:
				v = 0x8000
			case 11:
				v = PositiveInfinity
			}
			Store(b, i, v)
		}
		return b
	}
	type layout struct {
		name      string
		dst, a, b int // byte offsets into the backing array
	}
	layouts := []layout{
		{"dst==a", 64, 64, 0},
		{"dst==b", 0, 64, 0},
		{"dst==a==b", 64, 64, 64},
	}
	for _, d := range []int{2, 4, 6, 32, -2, -4, -6, -32} {
		layouts = append(layouts, layout{fmt.Sprintf("dst=a%+d", d), 64 + d, 64, 100})
		layouts = append(layouts, layout{fmt.Sprintf("dst=b%+d", d), 64 + d, 100, 64})
	}
	for _, k := range laneKernels() {
		for _, l := range layouts {
			got, want := seed(), seed()
			op := k.oracle
			if k.isScalar() {
				s := Load(got, l.b)
				op = func(a, _ Float16) Float16 { return k.oracle(a, s) }
			}
			k.slice(got[l.dst:l.dst+n], got[l.a:l.a+n], got[l.b:l.b+n])
			sequential(want[l.dst:l.dst+n], want[l.a:l.a+n], want[l.b:l.b+n], op)
			for i := 0; i < len(got); i += Bytes {
				if g, w := Load(got, i), Load(want, i); g != w {
					t.Errorf("%s %s: byte %d = %#04x, want %#04x", k.name, l.name, i, g, w)
					break
				}
			}
		}
	}
}
