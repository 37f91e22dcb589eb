package fp16

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Slice kernels: lane-wise operations over packed little-endian binary16
// byte slices, used by the simulator's flattened replay path (see
// aicore.FlatProgram). All slices must have the same even length. dst may
// alias a or b at any offset: the result is always the one a sequential
// per-lane loop (load, operate, store, lane by lane in increasing order)
// would produce.
//
// The kernels work on the bits, one 64-bit word (four lanes) at a time,
// and defer every lane they do not handle exactly to the scalar function
// of the same name, which stays the oracle (internal/fp16 tests check
// every operand pair against it):
//
//   - MaxSlice and MinSlice order four lanes as orderKey does, from one
//     SWAR unsigned compare of the raw bits and the lanes' sign bits, and
//     select lanes with a mask. A word holding a NaN or a pair of zeroes
//     (whose sign the scalar functions resolve by operand order) goes to
//     Max/Min lane by lane.
//   - AddSlice, SubSlice, MulSlice, AddsSlice and MulsSlice widen each
//     finite lane to float32 exactly with one integer shift and a multiply
//     by 2^112, operate in float32 as Add/Sub/Mul do, and narrow with a
//     branch-light round-to-nearest-even. A word holding an Inf or NaN
//     operand goes to the scalar function lane by lane.

// Word-at-a-time constants: a word is wordBytes long, and each lane*
// constant repeats one 16-bit pattern in the four lanes of a uint64.
const (
	wordBytes = 8
	laneOnes  = 0x0001_0001_0001_0001
	laneSign  = 0x8000_8000_8000_8000
	laneMag   = 0x7fff_7fff_7fff_7fff
	laneExp   = 0x7c00_7c00_7c00_7c00
	// laneNaNBias carries a lane's magnitude into its sign bit exactly when
	// it exceeds 0x7c00 (a NaN).
	laneNaNBias = 0x03ff_03ff_03ff_03ff
	// laneExpBias carries a lane's exponent field into its sign bit exactly
	// when it is all ones (Inf or NaN).
	laneExpBias = 0x0400_0400_0400_0400
)

// wordSafe reports whether a kernel may process dst one word at a time
// with src as an operand. Loading a whole word before storing it matches
// the sequential per-lane order unless dst starts 1–7 bytes after src:
// then a lane's store lands in a later lane of the same source word,
// which the per-lane loop would read back. Unrelated slices may also
// report false; that only costs speed.
func wordSafe(dst, src []byte) bool {
	if len(dst) == 0 || len(src) == 0 {
		return true
	}
	d := uintptr(unsafe.Pointer(unsafe.SliceData(dst))) - uintptr(unsafe.Pointer(unsafe.SliceData(src)))
	return d == 0 || d >= wordBytes
}

func load64(b []byte, i int) uint64     { return binary.LittleEndian.Uint64(b[i:]) }
func store64(b []byte, i int, w uint64) { binary.LittleEndian.PutUint64(b[i:], w) }

// spread widens each lane's sign bit of w into an all-ones lane mask.
func spread(w uint64) uint64 {
	m := w & laneSign
	return m | (m - m>>15)
}

// lessLanes sets the sign bit of every lane where x < y, as unsigned
// 16-bit integers. The low 15 bits compare by a subtraction that cannot
// borrow across lanes; the top bits decide where they differ.
func lessLanes(x, y uint64) uint64 {
	low := (x | laneSign) - (y &^ laneSign) // sign bit set where x's low bits >= y's
	ge := (x &^ y) | (^(x ^ y) & low)
	return ^ge & laneSign
}

// nanLanes sets the sign bit of every NaN lane of w.
func nanLanes(w uint64) uint64 { return ((w & laneMag) + laneNaNBias) & laneSign }

// zeroLanes sets the sign bit of every ±0 lane of w.
func zeroLanes(w uint64) uint64 { return ^((w & laneMag) + laneMag) & laneSign }

// nonFiniteLanes sets the sign bit of every Inf or NaN lane of w.
func nonFiniteLanes(w uint64) uint64 { return ((w & laneExp) + laneExpBias) & laneSign }

// widen returns the float32 value of a finite binary16 h exactly: the
// sign and magnitude bits move into float32 position, which scales the
// value by 2^-112 (subnormals land on float32 subnormals), and the
// multiply restores it.
func widen(h uint16) float32 {
	return math.Float32frombits(uint32(h&0x8000)<<16|uint32(h&0x7fff)<<13) * 0x1p112
}

// narrow rounds f to binary16 to nearest even, bit for bit as FromFloat32
// does for every value a finite Add, Sub or Mul can produce (never NaN).
func narrow(f float32) uint16 {
	u := math.Float32bits(f)
	sign := uint16(u>>16) & 0x8000
	u &= 0x7fff_ffff
	switch {
	case u-0x3880_0000 < 0x4780_0000-0x3880_0000: // 2^-14 <= |f| < 2^16
		// Rebias the exponent (15-127) and round on the 13 dropped bits:
		// add just under half, plus one when the kept mantissa is odd. A
		// carry into the exponent (or to infinity) is the correct rounding.
		return sign | uint16((u+0xc800_0fff+(u>>13)&1)>>13)
	case u >= 0x4780_0000: // |f| >= 2^16: infinity
		return sign | 0x7c00
	}
	// |f| < 2^-14, a subnormal or zero result: adding 0.5 puts the
	// binary16 subnormal grid (2^-24) on the last float32 mantissa bit, so
	// the add itself rounds to nearest even.
	return sign | uint16(math.Float32bits(math.Float32frombits(u)+0.5)-0x3f00_0000)
}

// lanewise runs word over every whole word of dst, a and b, and lane over
// the remaining lanes (and over every lane when aliasing forbids words).
func lanewise(dst, a, b []byte, word func(x, y uint64) uint64, lane func(x, y Float16) Float16) {
	n, i := len(dst), 0
	a, b = a[:n], b[:n]
	if wordSafe(dst, a) && wordSafe(dst, b) {
		for ; i+wordBytes <= n; i += wordBytes {
			store64(dst, i, word(load64(a, i), load64(b, i)))
		}
	}
	for ; i < n; i += Bytes {
		Store(dst, i, lane(Load(a, i), Load(b, i)))
	}
}

// scalarWord applies lane to each of the four lanes of x and y.
func scalarWord(x, y uint64, lane func(x, y Float16) Float16) (z uint64) {
	for s := 0; s < 64; s += 16 {
		z |= uint64(lane(Float16(x>>s), Float16(y>>s))) << s
	}
	return z
}

// maxWord and minWord select lanes in orderKey order without computing
// the keys: among non-negative lanes the raw bits already order
// numerically, and a negative operand reverses the raw unsigned compare —
// a negative lane against a non-negative one is the smaller, and two
// negative lanes order by descending magnitude. So y is the larger lane
// exactly when raw x < y disagrees with "either is negative". Equal bits
// are the same value, so the pick between them does not matter.
func maxWord(x, y uint64) uint64 {
	if nanLanes(x)|nanLanes(y)|zeroLanes(x|y) != 0 {
		return scalarWord(x, y, Max)
	}
	return x ^ (x^y)&spread(lessLanes(x, y)^(x|y))
}

func minWord(x, y uint64) uint64 {
	if nanLanes(x)|nanLanes(y)|zeroLanes(x|y) != 0 {
		return scalarWord(x, y, Min)
	}
	return x ^ (x^y)&spread(lessLanes(y, x)^(x|y))
}

func addWord(x, y uint64) (z uint64) {
	if nonFiniteLanes(x)|nonFiniteLanes(y) != 0 {
		return scalarWord(x, y, Add)
	}
	for s := 0; s < 64; s += 16 {
		z |= uint64(narrow(widen(uint16(x>>s))+widen(uint16(y>>s)))) << s
	}
	return z
}

func subWord(x, y uint64) (z uint64) {
	if nonFiniteLanes(x)|nonFiniteLanes(y) != 0 {
		return scalarWord(x, y, Sub)
	}
	for s := 0; s < 64; s += 16 {
		z |= uint64(narrow(widen(uint16(x>>s))-widen(uint16(y>>s)))) << s
	}
	return z
}

func mulWord(x, y uint64) (z uint64) {
	if nonFiniteLanes(x)|nonFiniteLanes(y) != 0 {
		return scalarWord(x, y, Mul)
	}
	for s := 0; s < 64; s += 16 {
		z |= uint64(narrow(widen(uint16(x>>s))*widen(uint16(y>>s)))) << s
	}
	return z
}

// MaxSlice stores lane-wise Max(a, b) into dst.
func MaxSlice(dst, a, b []byte) { lanewise(dst, a, b, maxWord, Max) }

// MinSlice stores lane-wise Min(a, b) into dst.
func MinSlice(dst, a, b []byte) { lanewise(dst, a, b, minWord, Min) }

// AddSlice stores lane-wise a+b into dst.
func AddSlice(dst, a, b []byte) { lanewise(dst, a, b, addWord, Add) }

// SubSlice stores lane-wise a-b into dst.
func SubSlice(dst, a, b []byte) { lanewise(dst, a, b, subWord, Sub) }

// MulSlice stores lane-wise a*b into dst.
func MulSlice(dst, a, b []byte) { lanewise(dst, a, b, mulWord, Mul) }

// AddsSlice stores lane-wise a+s into dst.
func AddsSlice(dst, a []byte, s Float16) {
	lanewise(dst, a, a, func(x, _ uint64) uint64 { return addWord(x, laneOnes*uint64(s)) },
		func(x, _ Float16) Float16 { return Add(x, s) })
}

// MulsSlice stores lane-wise a*s into dst.
func MulsSlice(dst, a []byte, s Float16) {
	lanewise(dst, a, a, func(x, _ uint64) uint64 { return mulWord(x, laneOnes*uint64(s)) },
		func(x, _ Float16) Float16 { return Mul(x, s) })
}

// DupSlice broadcasts s into every lane of dst.
func DupSlice(dst []byte, s Float16) {
	i := 0
	for ; i+wordBytes <= len(dst); i += wordBytes {
		store64(dst, i, laneOnes*uint64(s))
	}
	for ; i < len(dst); i += Bytes {
		Store(dst, i, s)
	}
}

// CmpEqSlice stores lane-wise (a == b ? 1.0 : 0.0) into dst.
func CmpEqSlice(dst, a, b []byte) {
	for i := 0; i < len(dst); i += Bytes {
		out := Zero
		if Equal(Load(a, i), Load(b, i)) {
			out = One
		}
		Store(dst, i, out)
	}
}
