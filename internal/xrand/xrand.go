// Package xrand provides reproducible random number utilities for the
// simulator. Every stochastic component in the repository is driven by an
// explicit generator constructed here from a caller-supplied seed, so that
// identical seeds yield identical executions across runs and platforms.
//
// The package wraps math/rand/v2's PCG generator and adds deterministic seed
// splitting: a parent seed can be split into independent child streams (one
// per node, per trial, per round, ...) without the streams being trivially
// correlated.
package xrand

import (
	"math/bits"
	"math/rand/v2"
)

// New returns a deterministic generator for the given seed. Two generators
// built from the same seed produce identical streams.
func New(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, mix(seed)))
}

// Split derives a child seed from a parent seed and an index. Distinct
// indices yield well-separated child seeds; Split is pure, so the derivation
// is reproducible. It is safe to chain: Split(Split(s, a), b).
func Split(seed uint64, index uint64) uint64 {
	return mix(seed ^ mix(index+0x9e3779b97f4a7c15))
}

// SplitN derives n child seeds from a parent seed.
func SplitN(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = Split(seed, uint64(i))
	}
	return out
}

// Streams returns n generators by value, stream i seeded Split(seed, i):
// draw for draw the streams of New(Split(seed, i)), in one allocation.
func Streams(seed uint64, n int) []Reseedable {
	out := make([]Reseedable, n)
	for i := range out {
		out[i].Reseed(Split(seed, uint64(i)))
	}
	return out
}

// mix is the SplitMix64 finaliser, a fast full-avalanche 64-bit mixer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Bernoulli reports true with probability p using the supplied generator.
// p outside [0, 1] is clamped.
func Bernoulli(rng *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return rng.Float64() < p
}

// Perm returns a random permutation of [0, n) using the supplied generator.
func Perm(rng *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// A Reseedable is a deterministic generator whose stream can be reset in
// place and jumped ahead: after Reseed(s) it yields exactly the stream
// New(s) yields, draw for draw, in Uint64, Float64 and IntN. Hot paths that
// previously built one generator per call (per round, per trial, per node)
// keep a Reseedable by value instead, avoiding the per-call allocations.
//
// It is math/rand/v2's PCG written out as a concrete type: a 128-bit linear
// congruential state with the DXSM output function. Being concrete, its
// draws cost no interface dispatch; being an LCG, it can skip k draws in
// O(log k) (Advance).
type Reseedable struct {
	hi, lo uint64 // the LCG state
}

// The LCG multiplier and increment of math/rand/v2's PCG, as 128-bit
// (hi, lo) pairs.
const (
	pcgMulHi = 2549297995355413924
	pcgMulLo = 4865540595714422341
	pcgIncHi = 6364136223846793005
	pcgIncLo = 1442695040888963407
)

// NewReseedable returns a Reseedable initially seeded with seed.
func NewReseedable(seed uint64) *Reseedable {
	r := &Reseedable{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator to the beginning of New(seed)'s stream.
func (r *Reseedable) Reseed(seed uint64) {
	r.hi, r.lo = seed, mix(seed)
}

// Uint64 returns the stream's next value.
func (r *Reseedable) Uint64() uint64 {
	// state = state·mul + inc (mod 2¹²⁸), with mul128 written out: that
	// keeps Float64 within the compiler's inlining budget.
	hi, lo := bits.Mul64(r.lo, pcgMulLo)
	hi += r.hi*pcgMulLo + r.lo*pcgMulHi
	lo, c := bits.Add64(lo, pcgIncLo, 0)
	hi += pcgIncHi + c
	r.hi, r.lo = hi, lo
	// DXSM, "double xorshift multiply".
	hi ^= hi >> 32
	hi *= 0xda942042e4dd58b5
	hi ^= hi >> 48
	return hi * (lo | 1)
}

// Float64 returns the stream's next value as a float64 in [0, 1), exactly
// as rand.Rand.Float64 derives it from the next Uint64.
func (r *Reseedable) Float64() float64 {
	return float64(r.Uint64()<<11>>11) / (1 << 53)
}

// IntN returns a value in [0, n) from the stream, exactly as rand.Rand.IntN
// derives it: a power-of-two n masks one Uint64; any other n takes the high
// word of Uint64·n (Lemire's multiply), drawing again while the low word
// falls below 2⁶⁴ mod n, so that every value is equally likely. It panics
// if n ≤ 0.
func (r *Reseedable) IntN(n int) int {
	if n <= 0 {
		panic("xrand: invalid argument to IntN")
	}
	m := uint64(n)
	if m&(m-1) == 0 {
		return int(r.Uint64() & (m - 1))
	}
	hi, lo := bits.Mul64(r.Uint64(), m)
	if lo < m {
		thresh := -m % m
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), m)
		}
	}
	return int(hi)
}

// Advance skips the stream's next k values, as k calls of Uint64 would,
// in one 128-bit multiply-add per set bit of k (F. B. Brown, "Random Number
// Generation with Arbitrary Strides", 1994).
func (r *Reseedable) Advance(k uint64) {
	for i := 0; k != 0; i, k = i+1, k>>1 {
		if k&1 != 0 {
			j := &pcgJumps[i]
			hi, lo := mul128(r.hi, r.lo, j.mulHi, j.mulLo)
			lo, c := bits.Add64(lo, j.incLo, 0)
			r.hi, r.lo = hi+j.incHi+c, lo
		}
	}
}

// pcgJump is the map state ↦ state·mul + inc (mod 2¹²⁸) of several LCG
// steps at once.
type pcgJump struct {
	mulHi, mulLo, incHi, incLo uint64
}

// pcgJumps[i] is the 2^i-step jump. Two 2^i-steps compose into a
// 2^(i+1)-step: mul' = mul², inc' = inc·(mul + 1).
var pcgJumps = func() (t [64]pcgJump) {
	t[0] = pcgJump{pcgMulHi, pcgMulLo, pcgIncHi, pcgIncLo}
	for i := 1; i < len(t); i++ {
		p := t[i-1]
		mulHi, mulLo := mul128(p.mulHi, p.mulLo, p.mulHi, p.mulLo)
		m1Lo, c := bits.Add64(p.mulLo, 1, 0)
		incHi, incLo := mul128(p.incHi, p.incLo, p.mulHi+c, m1Lo)
		t[i] = pcgJump{mulHi, mulLo, incHi, incLo}
	}
	return t
}()

// mul128 returns (aHi, aLo)·(bHi, bLo) mod 2¹²⁸.
func mul128(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(aLo, bLo)
	return hi + aHi*bLo + aLo*bHi, lo
}
