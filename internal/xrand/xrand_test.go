package xrand

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestNewDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 agreed on %d/64 draws", same)
	}
}

func TestSplitPureAndDistinct(t *testing.T) {
	if Split(7, 1) != Split(7, 1) {
		t.Error("Split is not pure")
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		s := Split(42, i)
		if seen[s] {
			t.Fatalf("collision at index %d", i)
		}
		seen[s] = true
	}
}

func TestSplitAvoidsSelf(t *testing.T) {
	// A seed split by index 0 must not reproduce the parent stream.
	parent := New(99)
	child := New(Split(99, 0))
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("child stream mirrors parent on %d/64 draws", same)
	}
}

func TestSplitN(t *testing.T) {
	seeds := SplitN(5, 10)
	if len(seeds) != 10 {
		t.Fatalf("len = %d, want 10", len(seeds))
	}
	for i, s := range seeds {
		if s != Split(5, uint64(i)) {
			t.Errorf("SplitN[%d] != Split(5, %d)", i, i)
		}
	}
	if len(SplitN(5, 0)) != 0 {
		t.Error("SplitN(_, 0) should be empty")
	}
}

func TestSplitChainsIndependent(t *testing.T) {
	// Split(Split(s, a), b) should differ from Split(Split(s, b), a) in
	// general: the derivation is order-sensitive.
	if Split(Split(1, 2), 3) == Split(Split(1, 3), 2) {
		t.Error("chained splits commute; streams would collide")
	}
}

func TestBernoulliExtremes(t *testing.T) {
	rng := New(1)
	for i := 0; i < 20; i++ {
		if Bernoulli(rng, 0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !Bernoulli(rng, 1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if Bernoulli(rng, -0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !Bernoulli(rng, 1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	rng := New(77)
	const trials = 20000
	hits := 0
	for i := 0; i < trials; i++ {
		if Bernoulli(rng, 0.25) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if rate < 0.22 || rate > 0.28 {
		t.Errorf("empirical rate %v far from 0.25", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 50)
		p := Perm(New(seed), n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermShuffles(t *testing.T) {
	// At n=52 the identity permutation is (astronomically) unlikely.
	p := Perm(New(3), 52)
	identity := true
	for i, v := range p {
		if v != i {
			identity = false
			break
		}
	}
	if identity {
		t.Error("Perm returned the identity permutation")
	}
}

// intNBounds are the bounds TestReseedableMatchesNew draws IntN with: 1, 2
// and 3, every power of two 2ᵏ up to 2⁶² with its neighbours 2ᵏ ± 1, and
// values near 2⁶³, where Lemire's rejection loop rejects about half its
// draws.
func intNBounds() []int {
	b := []int{1, 2, 3}
	for k := 2; k <= 62; k++ {
		b = append(b, 1<<k-1, 1<<k, 1<<k+1)
	}
	const top = 1<<63 - 1
	return append(b, top, top-1, top-2, top/3*2, 1<<62+1<<61+1, 5e18, 9e18)
}

// TestReseedableMatchesNew: Uint64, Float64 and IntN drawn from a
// Reseedable equal those drawn from xrand.New on the same seed, and leave
// the stream at the same position: the same LCG state as a twin rand.PCG,
// and the same draws after.
func TestReseedableMatchesNew(t *testing.T) {
	bounds := intNBounds()
	for _, seed := range []uint64{0, 1, 7, 0xdeadbeef, 1 << 63, ^uint64(0)} {
		want := New(seed)
		pcg := rand.NewPCG(seed, mix(seed))
		twin := rand.New(pcg)
		r := NewReseedable(seed)
		for round := 0; round < 3; round++ {
			for i, n := range bounds {
				if got, w := r.IntN(n), want.IntN(n); got != w {
					t.Fatalf("seed %#x IntN(%d): %d, rand.Rand %d", seed, n, got, w)
				}
				twin.IntN(n)
				switch i % 3 {
				case 0:
					if got, w := r.Uint64(), want.Uint64(); got != w {
						t.Fatalf("seed %#x after IntN(%d): Uint64 %#x, rand.Rand %#x", seed, n, got, w)
					}
					twin.Uint64()
				case 1:
					if got, w := r.Float64(), want.Float64(); got != w {
						t.Fatalf("seed %#x after IntN(%d): Float64 %v, rand.Rand %v", seed, n, got, w)
					}
					twin.Float64()
				}
			}
			state, err := pcg.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if hi, lo := binary.BigEndian.Uint64(state[4:]), binary.BigEndian.Uint64(state[12:]); hi != r.hi || lo != r.lo {
				t.Fatalf("seed %#x pass %d: state (%#x, %#x), rand.PCG (%#x, %#x)", seed, round, r.hi, r.lo, hi, lo)
			}
		}
		for k := 0; k < 4; k++ {
			if got, w := r.Uint64(), want.Uint64(); got != w {
				t.Fatalf("seed %#x: draw %d after the IntN sequence %#x, rand.Rand %#x", seed, k, got, w)
			}
		}
	}
}

func TestReseedableIntNPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -1 << 63} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("IntN(%d) did not panic", n)
				}
			}()
			NewReseedable(1).IntN(n)
		}()
	}
}
