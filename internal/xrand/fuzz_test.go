package xrand

import (
	"math/bits"
	"math/rand/v2"
	"testing"
)

// FuzzSplit fuzzes the two load-bearing properties of the seed-derivation
// layer: Split yields distinct, well-mixed child seeds for distinct indices
// (identical ones for identical indices), and a Reseedable reset to a seed
// replays exactly the stream a fresh New generator yields for that seed —
// the equivalence the hot paths rely on when they reuse one generator
// instead of allocating per call.
func FuzzSplit(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(1))
	f.Add(uint64(7), uint64(0), uint64(1))
	f.Add(uint64(0xdeadbeef), uint64(41), uint64(42))
	f.Add(^uint64(0), uint64(1)<<63, uint64(1)<<63-1)
	f.Add(uint64(0x9e3779b97f4a7c15), uint64(3), uint64(3))
	f.Fuzz(func(t *testing.T, seed, i, j uint64) {
		ci, cj := Split(seed, i), Split(seed, j)
		if i == j {
			if ci != cj {
				t.Fatalf("Split(%#x, %d) not pure: %#x vs %#x", seed, i, ci, cj)
			}
			return
		}
		if ci == cj {
			t.Fatalf("Split(%#x, ·) collides for indices %d and %d", seed, i, j)
		}
		// SplitMix64's full-avalanche mixing should leave sibling seeds far
		// apart in Hamming distance, never near-misses.
		if d := bits.OnesCount64(ci ^ cj); d < 4 {
			t.Fatalf("child seeds %#x and %#x differ in only %d bits", ci, cj, d)
		}

		fresh := New(ci)
		r := NewReseedable(cj)
		r.Uint64() // advance, so Reseed must really rewind the state
		r.Reseed(ci)
		for k := 0; k < 8; k++ {
			if got, want := r.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("Reseed(%#x) stream diverges from New(%#x) at draw %d: %#x != %#x", ci, ci, k, got, want)
			}
		}
	})
}

// FuzzReseedable fuzzes the jumpable stream: a Reseedable yields
// rand.New(rand.NewPCG(s, mix(s)))'s stream draw for draw, through any
// interleaving of Uint64, Float64 and IntN (with bounds taken from a and
// b, so powers of two, their neighbours and bounds near 2⁶³ all occur);
// Advance(k) lands where k Uint64 calls
// land, for every k ≤ 4096; and Advance(a) then Advance(b) lands where
// Advance(a+b) lands for arbitrary 64-bit a and b — where a+b wraps, after
// two further jumps of 2⁶³ that restore the lost 2⁶⁴.
func FuzzReseedable(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(7), uint64(0x5555555555555555), uint64(1), uint64(4095))
	f.Add(uint64(0xdeadbeef), ^uint64(0), ^uint64(0), uint64(2))
	f.Add(^uint64(0), uint64(1)<<63, uint64(1)<<63, ^uint64(0))
	f.Fuzz(func(t *testing.T, seed, pattern, a, b uint64) {
		want := rand.New(rand.NewPCG(seed, mix(seed)))
		r := NewReseedable(seed)
		bounds := [...]uint64{a >> 1, b >> 1, a >> (1 + b%63), 1 + b%1024, 1 << (a % 63), 1<<(a%63) + 1}
		for i := 0; i < 192; i++ {
			switch {
			case i%3 == 2:
				n := int(max(bounds[i/3%len(bounds)], 1))
				if got, w := r.IntN(n), want.IntN(n); got != w {
					t.Fatalf("seed %#x draw %d: IntN(%d) %d, rand.PCG %d", seed, i, n, got, w)
				}
			case pattern>>(i%64)&1 == 0:
				if got, w := r.Uint64(), want.Uint64(); got != w {
					t.Fatalf("seed %#x draw %d: Uint64 %#x, rand.PCG %#x", seed, i, got, w)
				}
			default:
				if got, w := r.Float64(), want.Float64(); got != w {
					t.Fatalf("seed %#x draw %d: Float64 %v, rand.PCG %v", seed, i, got, w)
				}
			}
		}
		if got, w := r.Uint64(), want.Uint64(); got != w {
			t.Fatalf("seed %#x: the streams end at different positions", seed)
		}

		stepped := NewReseedable(seed)
		for k := uint64(0); k <= 4096; k++ {
			jumped := NewReseedable(seed)
			jumped.Advance(k)
			if *jumped != *stepped {
				t.Fatalf("seed %#x: Advance(%d) is not %d Uint64 calls", seed, k, k)
			}
			stepped.Uint64()
		}

		split, whole := NewReseedable(seed), NewReseedable(seed)
		split.Advance(a)
		split.Advance(b)
		sum, carry := bits.Add64(a, b, 0)
		whole.Advance(sum)
		if carry != 0 {
			whole.Advance(1 << 63)
			whole.Advance(1 << 63)
		}
		if *split != *whole {
			t.Fatalf("seed %#x: Advance(%d) then Advance(%d) is not Advance of their sum", seed, a, b)
		}
	})
}
