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
// multiply restores it. The conversion keeps a caller's add from fusing
// with the multiply: the result would be the same, but every target then
// compiles the same operations.
func widen(h uint16) float32 {
	return float32(math.Float32frombits(uint32(h&0x8000)<<16|uint32(h&0x7fff)<<13) * 0x1p112)
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
	return maxOrdered(x, y)
}

func minWord(x, y uint64) uint64 {
	if nanLanes(x)|nanLanes(y)|zeroLanes(x|y) != 0 {
		return scalarWord(x, y, Min)
	}
	return x ^ (x^y)&spread(lessLanes(y, x)^(x|y))
}

// maxOrdered is the SWAR select of maxWord, exact when no lane is a NaN
// and no lane pair is two zeroes. It fits the inlining budget, so MaxFold
// runs it inline.
func maxOrdered(x, y uint64) uint64 { return x ^ (x^y)&spread(lessLanes(x, y)^(x|y)) }

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

// MaxFold runs a whole vmax reduction chain in one pass. Every lane of
// dst starts at init; then, for each of the k sources in order, it
// becomes Max(source lane, dst lane). Source s is the len(dst) bytes at
// src[s*stride:] (stride >= 0), and no source may overlap dst. Each lane
// sees the same operations with the same operand order as
// DupSlice(dst, init) followed by k calls of MaxSlice(dst, source, dst),
// so the result is the same bit for bit. But the accumulators stay in
// registers: one load per source word and one store per dst word, where
// the k slice calls cost two loads and a store each. The kernel keeps
// foldBytes of dst — four independent accumulator words — in flight per
// source, and calls the word kernels directly.
//
// It runs the SWAR select inline for a source word with no NaN and no -0
// lane. That is exact because an accumulator lane is a NaN only while
// init is one (Max returns a NaN only when both operands are), and of the
// ±0 pairs, which the SWAR select orders -0 below +0, only a -0 source
// against a +0 accumulator resolves the other way (Max keeps its first
// operand, the source). Other words go to maxWord.
func MaxFold(dst []byte, init Float16, src []byte, stride, k int) {
	n, i := len(dst), 0
	swar := !init.IsNaN()
	for ; i+foldBytes <= n; i += foldBytes {
		a0 := laneOnes * uint64(init)
		a1, a2, a3 := a0, a0, a0
		for s, off := 0, i; s < k; s, off = s+1, off+stride {
			w := src[off : off+foldBytes]
			x0, x1, x2, x3 := load64(w, 0), load64(w, 8), load64(w, 16), load64(w, 24)
			if swar && foldSlowLanes(x0)|foldSlowLanes(x1)|foldSlowLanes(x2)|foldSlowLanes(x3) == 0 {
				a0, a1, a2, a3 = maxOrdered(x0, a0), maxOrdered(x1, a1), maxOrdered(x2, a2), maxOrdered(x3, a3)
			} else {
				a0, a1, a2, a3 = maxWord(x0, a0), maxWord(x1, a1), maxWord(x2, a2), maxWord(x3, a3)
			}
		}
		d := dst[i : i+foldBytes]
		store64(d, 0, a0)
		store64(d, 8, a1)
		store64(d, 16, a2)
		store64(d, 24, a3)
	}
	for ; i < n; i += Bytes {
		acc := init
		for s, off := 0, i; s < k; s, off = s+1, off+stride {
			acc = Max(Load(src, off), acc)
		}
		Store(dst, i, acc)
	}
}

// foldBytes is the dst span MaxFold and MaxFoldAt accumulate at once.
const foldBytes = 4 * wordBytes

// foldSlowLanes sets the sign bit of every NaN or -0 lane of w.
func foldSlowLanes(w uint64) uint64 { return nanLanes(w) | zeroLanes(w)&w }

// MaxFoldAt runs a vmax reduction chain that starts from dst's own lanes:
// for each offset in order, every lane of dst becomes Max(source lane,
// dst lane), where the source is the len(dst) bytes at src[off:]. No
// source may overlap dst. The result is that of len(offs) calls of
// MaxSlice(dst, source, dst), bit for bit. It is MaxFold's loop with the
// accumulators loaded from dst: the SWAR select runs inline as long as no
// accumulator lane of the span started as a NaN (after a non-NaN start an
// accumulator lane never becomes one).
func MaxFoldAt(dst, src []byte, offs []int32) {
	n, i := len(dst), 0
	for ; i+foldBytes <= n; i += foldBytes {
		d := dst[i : i+foldBytes]
		a0, a1, a2, a3 := load64(d, 0), load64(d, 8), load64(d, 16), load64(d, 24)
		swar := nanLanes(a0)|nanLanes(a1)|nanLanes(a2)|nanLanes(a3) == 0
		for _, off := range offs {
			w := src[int(off)+i : int(off)+i+foldBytes]
			x0, x1, x2, x3 := load64(w, 0), load64(w, 8), load64(w, 16), load64(w, 24)
			if swar && foldSlowLanes(x0)|foldSlowLanes(x1)|foldSlowLanes(x2)|foldSlowLanes(x3) == 0 {
				a0, a1, a2, a3 = maxOrdered(x0, a0), maxOrdered(x1, a1), maxOrdered(x2, a2), maxOrdered(x3, a3)
			} else {
				a0, a1, a2, a3 = maxWord(x0, a0), maxWord(x1, a1), maxWord(x2, a2), maxWord(x3, a3)
			}
		}
		store64(d, 0, a0)
		store64(d, 8, a1)
		store64(d, 16, a2)
		store64(d, 24, a3)
	}
	for ; i < n; i += Bytes {
		acc := Load(dst, i)
		for _, off := range offs {
			acc = Max(Load(src, int(off)+i), acc)
		}
		Store(dst, i, acc)
	}
}

// AddFold runs a vadd reduction chain that starts from dst's own lanes:
// for each offset in order, every lane of dst becomes Add(source lane,
// dst lane), where the source is the len(dst) bytes at src[off:]. No
// source may overlap dst. The result is that of len(offs) calls of
// AddSlice(dst, source, dst), bit for bit.
//
// Each lane's accumulator stays in float32 between adds, holding a
// binary16 value exactly. A step adds the widened source lane with the
// same float32 add Add uses, then rounds the sum to binary16 precision in
// place (roundHalf) instead of narrowing it to bits and widening it back.
// A word goes to the scalar chain for one step when a source lane is an
// Inf or NaN, or when a sum reaches the overflow threshold or is not
// finite (which also covers non-finite accumulators).
func AddFold(dst, src []byte, offs []int32) {
	n, i := len(dst), 0
	for ; i+wordBytes <= n; i += wordBytes {
		a0, a1, a2, a3 := exactWord(load64(dst, i))
		for _, off := range offs {
			x := load64(src, int(off)+i)
			if nonFiniteLanes(x) == 0 {
				f0 := widen(uint16(x)) + a0
				f1 := widen(uint16(x>>16)) + a1
				f2 := widen(uint16(x>>32)) + a2
				f3 := widen(uint16(x>>48)) + a3
				u0, u1, u2, u3 := math.Float32bits(f0), math.Float32bits(f1), math.Float32bits(f2), math.Float32bits(f3)
				if ((u0&roundMag+roundBias)|(u1&roundMag+roundBias)|(u2&roundMag+roundBias)|(u3&roundMag+roundBias))&roundSign == 0 {
					a0, a1, a2, a3 = roundHalf(u0), roundHalf(u1), roundHalf(u2), roundHalf(u3)
					continue
				}
			}
			a0, a1, a2, a3 = addStep(x, a0), addStep(x>>16, a1), addStep(x>>32, a2), addStep(x>>48, a3)
		}
		store64(dst, i, uint64(halfBits(a0))|uint64(halfBits(a1))<<16|uint64(halfBits(a2))<<32|uint64(halfBits(a3))<<48)
	}
	for ; i < n; i += Bytes {
		acc := Load(dst, i)
		for _, off := range offs {
			acc = Add(Load(src, int(off)+i), acc)
		}
		Store(dst, i, acc)
	}
}

// Float32 bit patterns for AddFold's range check: a magnitude plus
// roundBias carries into roundSign exactly when it is at least 65520, the
// smallest magnitude that rounds to a binary16 infinity, or not finite.
const (
	roundMag  = 0x7fff_ffff
	roundSign = 0x8000_0000
	roundBias = roundSign - 0x477f_f000 // 0x477ff000 is 65520
)

// roundHalf rounds the float32 with bits u, of magnitude below 65520 and
// the float32 sum of two binary16 values, to the nearest binary16 value,
// ties to even, and returns it as a float32: the value
// ToFloat32(FromFloat32(f)). At or above 2^-14 it rounds the 13 mantissa
// bits binary16 drops: add just under half, plus one when the kept
// mantissa is odd, then clear them (a carry into the exponent is the
// correct rounding). Below 2^-14 the sum is exact, a multiple of 2^-24
// with at most 10 significant bits, so those 13 bits are already zero and
// the same rounding leaves it unchanged.
func roundHalf(u uint32) float32 {
	return math.Float32frombits((u + 0xfff + (u>>13)&1) &^ 0x1fff)
}

// addStep is one step of the scalar chain on an accumulator that holds a
// binary16 value exactly: Add(lane 0 of x, acc), widened back. Every
// float32 value of a binary16 survives FromFloat32 unchanged, NaN
// included (ToFloat32 quiets a NaN, and Add would quiet it the same way).
func addStep(x uint64, acc float32) float32 {
	return ToFloat32(Add(Float16(x), FromFloat32(acc)))
}

// exactWord widens the four lanes of w exactly.
func exactWord(w uint64) (float32, float32, float32, float32) {
	if nonFiniteLanes(w) == 0 {
		return widen(uint16(w)), widen(uint16(w >> 16)), widen(uint16(w >> 32)), widen(uint16(w >> 48))
	}
	return ToFloat32(Float16(w)), ToFloat32(Float16(w >> 16)), ToFloat32(Float16(w >> 32)), ToFloat32(Float16(w >> 48))
}

// halfBits returns the bits of the binary16 value f holds exactly.
func halfBits(f float32) uint16 {
	if f != f {
		return uint16(FromFloat32(f))
	}
	return narrow(f)
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
