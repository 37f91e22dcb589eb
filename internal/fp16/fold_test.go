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
