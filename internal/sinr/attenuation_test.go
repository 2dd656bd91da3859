package sinr

import (
	"math"
	"testing"
	"testing/quick"

	"fadingcr/internal/xrand"
)

// TestAttenuationMatchesPow: every fast path agrees with math.Pow to within
// a few ulps across the distance range the simulator uses.
func TestAttenuationMatchesPow(t *testing.T) {
	f := func(dRaw uint32, pick uint8) bool {
		d2 := 1e-6 + float64(dRaw)/1e3 // (0, ~4.3e6]
		alphas := []float64{2, 3, 4, 6, 2.5, 3.7}
		alpha := alphas[int(pick)%len(alphas)]
		got := attenuation(d2, alpha)
		want := math.Pow(d2, -alpha/2)
		return math.Abs(got-want) <= 1e-12*math.Max(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAttenuationKnownValues(t *testing.T) {
	cases := []struct {
		d2, alpha, want float64
	}{
		{4, 2, 0.25},     // d=2, α=2 → 1/4
		{4, 3, 0.125},    // d=2, α=3 → 1/8
		{4, 4, 1.0 / 16}, // d=2, α=4 → 1/16
		{4, 6, 1.0 / 64}, // d=2, α=6 → 1/64
		{1, 3, 1},        // unit distance
		{0.25, 2, 4},     // d=0.5, α=2 → 4
	}
	for _, c := range cases {
		if got := attenuation(c.d2, c.alpha); math.Abs(got-c.want) > 1e-12*c.want {
			t.Errorf("attenuation(%v, %v) = %v, want %v", c.d2, c.alpha, got, c.want)
		}
	}
}

// TestCubeIsAttenuation: cube, which the pair loops compute in place at
// α = 3, is attenuation's α = 3 arm bit for bit, and both are the literal
// 1/(d2·√d2): over random d2 in the simulator's range and over random bit
// patterns of every exponent, subnormals, 0, +Inf, the largest float and
// every exact power of two.
func TestCubeIsAttenuation(t *testing.T) {
	cases := []float64{0, math.Inf(1), math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		0x1p-1030 + math.SmallestNonzeroFloat64, math.MaxFloat64}
	for e := -1074; e <= 1023; e++ {
		cases = append(cases, math.Ldexp(1, e))
	}
	rng := xrand.New(27)
	for range 20000 {
		cases = append(cases, 1e-6+4e6*rng.Float64())
		if x := math.Float64frombits(rng.Uint64() &^ (1 << 63)); !math.IsNaN(x) {
			cases = append(cases, x)
		}
	}
	for _, d2 := range cases {
		want := math.Float64bits(1 / (d2 * math.Sqrt(d2)))
		if got := math.Float64bits(cube(d2)); got != want {
			t.Fatalf("cube(%v) = %v, want 1/(d2·√d2) = %v", d2, cube(d2), math.Float64frombits(want))
		}
		if got := math.Float64bits(attenuation(d2, 3)); got != want {
			t.Fatalf("attenuation(%v, 3) = %v, want 1/(d2·√d2) = %v", d2, attenuation(d2, 3), math.Float64frombits(want))
		}
	}
}

// BenchmarkAttenuation quantifies the fast-path win.
func BenchmarkAttenuation(b *testing.B) {
	b.Run("fast-alpha3", func(b *testing.B) {
		sum := 0.0
		for i := 0; i < b.N; i++ {
			sum += attenuation(float64(i%1000)+1, 3)
		}
		_ = sum
	})
	b.Run("pow-alpha3.1", func(b *testing.B) {
		sum := 0.0
		for i := 0; i < b.N; i++ {
			sum += attenuation(float64(i%1000)+1, 3.1)
		}
		_ = sum
	})
}
