// Package fp16 implements IEEE 754 binary16 ("half precision", Float16)
// arithmetic in software.
//
// The DaVinci architecture adopts Float16 as its primary data type: the
// fractal dimension C0 holds 16 Float16 elements so that one data-fractal is
// always 16*16*2 bytes = 4096 bits (paper §III-B). All simulated buffers
// store raw binary16 bit patterns. The scalar functions (Add, Max, ...)
// define the arithmetic: widen to float32, operate, and round back to the
// nearest representable binary16 value (round-to-nearest-even), which
// matches hardware half-precision vector units for the single-operation
// case. Comparisons work on the bits directly (orderKey). The slice
// kernels (slice.go) that replay vector instructions compute the same
// results on the bits, four lanes per 64-bit word, and defer the lanes
// they do not handle exactly to the scalar functions, which tests use as
// the oracle over every operand pair.
package fp16

import "math"

// Float16 is the bit pattern of an IEEE 754 binary16 value.
type Float16 uint16

// Interesting constants.
const (
	// PositiveInfinity and NegativeInfinity are the binary16 infinities.
	PositiveInfinity Float16 = 0x7c00
	NegativeInfinity Float16 = 0xfc00
	// NaN is a quiet binary16 NaN.
	NaN Float16 = 0x7e00
	// MaxValue is the largest finite binary16 value (65504).
	MaxValue Float16 = 0x7bff
	// LowestValue is the most negative finite binary16 value (-65504).
	LowestValue Float16 = 0xfbff
	// SmallestSubnormal is the smallest positive binary16 value (2^-24).
	SmallestSubnormal Float16 = 0x0001
	// One is binary16 1.0.
	One Float16 = 0x3c00
	// Zero is binary16 +0.0.
	Zero Float16 = 0x0000
)

// FromFloat32 converts a float32 to the nearest binary16 value using
// round-to-nearest-even. Overflow produces infinity, underflow produces
// (possibly subnormal) small values or signed zero.
func FromFloat32(f float32) Float16 {
	b := math.Float32bits(f)
	sign := uint16((b >> 16) & 0x8000)
	exp := int32((b>>23)&0xff) - 127
	frac := b & 0x7fffff

	switch {
	case exp == 128: // Inf or NaN
		if frac != 0 {
			// Preserve a quiet NaN, keep top fraction bits.
			return Float16(sign | 0x7e00 | uint16(frac>>13))
		}
		return Float16(sign | 0x7c00)
	case exp > 15: // overflow -> infinity
		return Float16(sign | 0x7c00)
	case exp >= -14: // normal range
		// 10-bit mantissa; round to nearest even on the 13 dropped bits.
		mant := frac >> 13
		round := frac & 0x1fff
		h := sign | uint16(exp+15)<<10 | uint16(mant)
		if round > 0x1000 || (round == 0x1000 && mant&1 == 1) {
			h++ // may carry into exponent; that is correct behaviour
		}
		return Float16(h)
	case exp >= -25: // subnormal range (or rounds up to the smallest subnormal)
		// Implicit leading 1 becomes explicit; shift depends on exponent.
		frac |= 0x800000
		shift := uint32(-exp - 14 + 13) // 14..24
		mant := frac >> shift
		dropped := frac & ((1 << shift) - 1)
		half := uint32(1) << (shift - 1)
		h := sign | uint16(mant)
		if dropped > half || (dropped == half && mant&1 == 1) {
			h++
		}
		return Float16(h)
	default: // underflow to signed zero
		return Float16(sign)
	}
}

// ToFloat32 converts a binary16 value to float32 exactly (binary16 values
// are all exactly representable in float32).
func ToFloat32(h Float16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	frac := uint32(h & 0x3ff)

	switch exp {
	case 0:
		if frac == 0 { // signed zero
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := int32(-14)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= 0x3ff
		return math.Float32frombits(sign | uint32(e+127)<<23 | frac<<13)
	case 31:
		if frac == 0 {
			return math.Float32frombits(sign | 0x7f800000)
		}
		return math.Float32frombits(sign | 0x7f800000 | frac<<13 | 1<<22)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | frac<<13)
	}
}

// FromFloat64 converts a float64 to the nearest binary16 value.
func FromFloat64(f float64) Float16 { return FromFloat32(float32(f)) }

// ToFloat64 converts a binary16 value to float64 exactly.
func ToFloat64(h Float16) float64 { return float64(ToFloat32(h)) }

// IsNaN reports whether h is a NaN.
func (h Float16) IsNaN() bool { return h&0x7c00 == 0x7c00 && h&0x3ff != 0 }

// IsInf reports whether h is an infinity. sign > 0 tests +Inf, sign < 0
// tests -Inf and sign == 0 tests either.
func (h Float16) IsInf(sign int) bool {
	if h&0x7fff != 0x7c00 {
		return false
	}
	switch {
	case sign > 0:
		return h&0x8000 == 0
	case sign < 0:
		return h&0x8000 != 0
	default:
		return true
	}
}

// Signbit reports whether h is negative or negative zero.
func (h Float16) Signbit() bool { return h&0x8000 != 0 }

// Float32 is shorthand for ToFloat32(h).
func (h Float16) Float32() float32 { return ToFloat32(h) }

// Add returns a+b rounded to binary16.
func Add(a, b Float16) Float16 { return FromFloat32(ToFloat32(a) + ToFloat32(b)) }

// Sub returns a-b rounded to binary16.
func Sub(a, b Float16) Float16 { return FromFloat32(ToFloat32(a) - ToFloat32(b)) }

// Mul returns a*b rounded to binary16.
func Mul(a, b Float16) Float16 { return FromFloat32(ToFloat32(a) * ToFloat32(b)) }

// Div returns a/b rounded to binary16.
func Div(a, b Float16) Float16 { return FromFloat32(ToFloat32(a) / ToFloat32(b)) }

// orderKey maps a non-NaN bit pattern to an unsigned key that increases
// with numeric value: negative values (sign bit set) reverse their
// magnitude order under complement, positive values shift above them. One
// integer compare then replaces the widen-to-float32 comparison, which is
// the hot path of the simulated vector max/min reductions.
func orderKey(h Float16) uint16 {
	if h&0x8000 != 0 {
		return ^uint16(h)
	}
	return uint16(h) | 0x8000
}

// Max returns the larger of a and b. If either operand is NaN the other is
// returned (matching the maxnum semantics of vector max instructions).
func Max(a, b Float16) Float16 {
	switch {
	case a.IsNaN():
		return b
	case b.IsNaN():
		return a
	case (a|b)&0x7fff == 0: // zeroes compare equal; keep a like Less did
		return a
	case orderKey(a) < orderKey(b):
		return b
	}
	return a
}

// Min returns the smaller of a and b, with maxnum-style NaN handling.
func Min(a, b Float16) Float16 {
	switch {
	case a.IsNaN():
		return b
	case b.IsNaN():
		return a
	case (a|b)&0x7fff == 0:
		return b
	case orderKey(a) < orderKey(b):
		return a
	}
	return b
}

// Less reports a < b in numeric order (false if either is NaN). Zeroes of
// either sign compare equal.
func Less(a, b Float16) bool {
	if a.IsNaN() || b.IsNaN() {
		return false
	}
	if (a|b)&0x7fff == 0 {
		return false
	}
	return orderKey(a) < orderKey(b)
}

// Equal reports numeric equality (+0 == -0, NaN != NaN). Binary16
// representations are unique apart from the signed zeroes, so this is a
// bit compare plus the zero case.
func Equal(a, b Float16) bool {
	if a.IsNaN() || b.IsNaN() {
		return false
	}
	return a == b || (a|b)&0x7fff == 0
}

// Neg returns h with its sign flipped.
func Neg(h Float16) Float16 { return h ^ 0x8000 }

// Abs returns h with its sign cleared.
func Abs(h Float16) Float16 { return h &^ 0x8000 }
