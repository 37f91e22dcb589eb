package fp16

import (
	"fmt"
	"testing"
)

// sequentialMax is the chain MaxFold replaces: a dup of init, then one
// MaxSlice call dst = max(source, dst) per source.
func sequentialMax(dst []byte, init Float16, src []byte, stride, k int) {
	DupSlice(dst, init)
	for s := 0; s < k; s++ {
		MaxSlice(dst, src[s*stride:s*stride+len(dst)], dst)
	}
}

// TestMaxFoldStratified checks MaxFold against sequential MaxSlice
// application for chain lengths 2-9. At each chain position in turn, the
// source there runs through every boundary value (±0, ±Inf, NaN
// payloads, subnormals) in the lanes where the earlier sources all hold
// one boundary value, for each boundary value, so every pair of boundary
// values meets at every position; later sources hold ordinary and special
// bit patterns. The length has an odd tail past the whole words, the
// sources sit at a stride wider than dst, and the seed cycles through
// ordinary and special values, NaN included.
func TestMaxFoldStratified(t *testing.T) {
	bv := boundaryValues()
	lanes := len(bv)*len(bv) + 3
	n := lanes * Bytes
	stride := n + 6
	inits := []Float16{NegativeInfinity, Zero, 0x8000, PositiveInfinity, NaN, One, 0x0001}
	src := make([]byte, 8*stride+n)
	got, want := make([]byte, n), make([]byte, n)
	for chain := 2; chain <= 9; chain++ {
		for pos := 0; pos < chain; pos++ {
			for s := 0; s < chain; s++ {
				for l := 0; l < lanes; l++ {
					v := Float16(l*0x9e37 + s)
					switch {
					case l >= len(bv)*len(bv):
						v = bv[(l+s)%len(bv)]
					case s < pos:
						v = bv[l/len(bv)]
					case s == pos:
						v = bv[l%len(bv)]
					}
					Store(src, s*stride+l*Bytes, v)
				}
			}
			init := inits[(chain+pos)%len(inits)]
			MaxFold(got, init, src, stride, chain)
			sequentialMax(want, init, src, stride, chain)
			for i := 0; i < n; i += Bytes {
				if g, w := Load(got, i), Load(want, i); g != w {
					t.Fatalf("chain %d, position %d, init %#04x: lane %d = %#04x, want %#04x",
						chain, pos, init, i/Bytes, g, w)
				}
			}
		}
	}
}

// TestMaxFoldStrides runs short folds, shorter and longer than one
// accumulator span, at strides 0 (one source repeated) and narrower than
// dst, against sequential application.
func TestMaxFoldStrides(t *testing.T) {
	for _, lanes := range []int{1, 3, 15, 16, 17, 35} {
		for _, stride := range []int{0, 2, 32, lanes * Bytes} {
			name := fmt.Sprintf("lanes=%d/stride=%d", lanes, stride)
			n := lanes * Bytes
			src := make([]byte, 4*stride+n)
			for i := 0; i < len(src); i += Bytes {
				Store(src, i, Float16(i*0x9e37+i>>4))
			}
			got, want := make([]byte, n), make([]byte, n)
			MaxFold(got, NegativeInfinity, src, stride, 5)
			sequentialMax(want, NegativeInfinity, src, stride, 5)
			for i := 0; i < n; i += Bytes {
				if g, w := Load(got, i), Load(want, i); g != w {
					t.Errorf("%s: lane %d = %#04x, want %#04x", name, i/Bytes, g, w)
					break
				}
			}
		}
	}
}

// foldKernel pairs a from-dst fold kernel with the slice kernel whose
// sequential chain is its oracle.
type foldKernel struct {
	name  string
	fold  func(dst, src []byte, offs []int32)
	slice func(dst, a, b []byte)
}

func foldKernels() []foldKernel {
	return []foldKernel{{"MaxFoldAt", MaxFoldAt, MaxSlice}, {"AddFold", AddFold, AddSlice}}
}

// sequentialAt is the chain a from-dst fold replaces: one slice call
// dst = op(source, dst) per offset.
func sequentialAt(slice func(dst, a, b []byte), dst, src []byte, offs []int32) {
	for _, off := range offs {
		slice(dst, src[int(off):int(off)+len(dst)], dst)
	}
}

// TestFoldAtStratified checks MaxFoldAt and AddFold against the
// sequential DupSlice plus MaxSlice/AddSlice chain, for chain lengths 2-9
// and both starts: from a dup (dst broadcast to one value first, as a
// dup-led chain runs) and from R (dst's lanes vary). Chain position 0 is
// the start; at each position in turn, the value there runs through every
// boundary value (±0, subnormals, ±65504, ±Inf, NaN payloads) in the lanes
// where the earlier positions all hold one boundary value, for each
// boundary value, so every pair of boundary values meets at every
// position, and pairs of large values overflow. Later sources hold
// ordinary and special bit patterns. The sources sit at offsets that are
// neither sorted nor evenly spaced, and the length has an odd tail past
// the whole words.
func TestFoldAtStratified(t *testing.T) {
	bv := boundaryValues()
	lanes := len(bv)*len(bv) + 3
	n := lanes * Bytes
	stride := n + 6
	inits := []Float16{Zero, 0x8000, NegativeInfinity, PositiveInfinity, NaN, One, 0x0001, MaxValue}
	src := make([]byte, 9*stride)
	start, got, want := make([]byte, n), make([]byte, n), make([]byte, n)
	for _, k := range foldKernels() {
		for _, fromDup := range []bool{true, false} {
			for chain := 2; chain <= 9; chain++ {
				offs := make([]int32, chain)
				for s := range offs {
					offs[s] = int32((s*5%chain)*stride + s%2*4)
				}
				for pos := 0; pos <= chain; pos++ {
					if fromDup && pos == 0 {
						continue
					}
					// value returns what position p (0: the start, s+1:
					// source s) holds in lane l.
					value := func(p, l int) Float16 {
						switch {
						case l >= len(bv)*len(bv):
							return bv[(l+p)%len(bv)]
						case p < pos:
							return bv[l/len(bv)]
						case p == pos:
							return bv[l%len(bv)]
						}
						return Float16(l*0x9e37 + p)
					}
					for s, off := range offs {
						for l := 0; l < lanes; l++ {
							Store(src, int(off)+l*Bytes, value(s+1, l))
						}
					}
					init := inits[(chain+pos)%len(inits)]
					for l := 0; l < lanes; l++ {
						if fromDup {
							Store(start, l*Bytes, init)
						} else {
							Store(start, l*Bytes, value(0, l))
						}
					}
					copy(got, start)
					copy(want, start)
					k.fold(got, src, offs)
					sequentialAt(k.slice, want, src, offs)
					for i := 0; i < n; i += Bytes {
						if g, w := Load(got, i), Load(want, i); g != w {
							t.Fatalf("%s from dup %v, chain %d, position %d: lane %d (start %#04x) = %#04x, want %#04x",
								k.name, fromDup, chain, pos, i/Bytes, Load(start, i), g, w)
						}
					}
				}
			}
		}
	}
}

// TestFoldAtShort runs the from-dst folds on spans shorter and longer
// than one word and one accumulator span, with a repeated source (offset
// listed twice), against sequential application.
func TestFoldAtShort(t *testing.T) {
	for _, k := range foldKernels() {
		for _, lanes := range []int{1, 3, 4, 15, 16, 17, 35} {
			n := lanes * Bytes
			src := make([]byte, 4*n+64)
			for i := 0; i < len(src); i += Bytes {
				Store(src, i, Float16(i*0x9e37+i>>4))
			}
			offs := []int32{int32(n), 0, int32(3 * n), int32(n), 2}
			got, want := make([]byte, n), make([]byte, n)
			for i := 0; i < n; i += Bytes {
				Store(got, i, Float16(0x3c00+i))
			}
			copy(want, got)
			k.fold(got, src[n:], offs[:0]) // no sources: dst unchanged
			k.fold(got, src, offs)
			sequentialAt(k.slice, want, src, offs)
			for i := 0; i < n; i += Bytes {
				if g, w := Load(got, i), Load(want, i); g != w {
					t.Errorf("%s lanes=%d: lane %d = %#04x, want %#04x", k.name, lanes, i/Bytes, g, w)
					break
				}
			}
		}
	}
}

// BenchmarkFold times the reduction-chain kernels on the shapes a
// 147x147 k3s2 tile runs: MaxFold (dup-led, constant stride) and AddFold
// over one Im2col band of 25 fractals with 9 sources, and the 16-lane
// from-R chains of the standard lowering, whose 9 sources sit at the
// window's offsets in a 147-pixel-wide input row band. Sources hold
// finite values of mixed sign and magnitude.
func BenchmarkFold(b *testing.B) {
	const (
		bandBytes = 25 * 256 * Bytes
		block     = 16 * Bytes
		rowBytes  = 147 * block
	)
	band := make([]byte, 9*bandBytes)
	fillFinite(band)
	bandOffs := make([]int32, 9)
	for s := range bandOffs {
		bandOffs[s] = int32(s * bandBytes)
	}
	window := make([]int32, 0, 9)
	for kh := 0; kh < 3; kh++ {
		for kw := 0; kw < 3; kw++ {
			window = append(window, int32(kh*rowBytes+kw*block))
		}
	}
	rows := make([]byte, 3*rowBytes)
	fillFinite(rows)
	dst := make([]byte, bandBytes)
	b.Run("MaxFold/band", func(b *testing.B) {
		b.SetBytes(int64(len(band)))
		for i := 0; i < b.N; i++ {
			MaxFold(dst, NegativeInfinity, band, bandBytes, 9)
		}
	})
	b.Run("AddFold/band", func(b *testing.B) {
		b.SetBytes(int64(len(band)))
		for i := 0; i < b.N; i++ {
			DupSlice(dst, Zero)
			AddFold(dst, band, bandOffs)
		}
	})
	// One output row of 73 pixels, each a 16-lane chain from R, after the
	// row's dup.
	for _, k := range foldKernels() {
		b.Run(k.name+"/16-lane", func(b *testing.B) {
			b.SetBytes(73 * 9 * block)
			out := dst[:73*block]
			for i := 0; i < b.N; i++ {
				DupSlice(out, Zero)
				for ow := 0; ow < 73; ow++ {
					k.fold(out[ow*block:(ow+1)*block], rows[2*ow*block:], window)
				}
			}
		})
	}
}

// fillFinite fills b with finite binary16 values of both signs and
// magnitudes from about 2^-8 to 2^7.
func fillFinite(b []byte) {
	for i := 0; i < len(b); i += Bytes {
		Store(b, i, Float16(i*0x9e37)&0x83ff|0x2000+Float16(i>>3&0xf)<<10)
	}
}
