package hashing

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestMurmur2Deterministic(t *testing.T) {
	data := []byte("192.168.0.1->10.0.0.7")
	a := Murmur2Sum64(data, 42)
	b := Murmur2Sum64(data, 42)
	if a != b {
		t.Fatalf("Murmur2Sum64 not deterministic: %x vs %x", a, b)
	}
}

func TestMurmur2SeedSensitivity(t *testing.T) {
	data := []byte("element")
	a := Murmur2Sum64(data, 1)
	b := Murmur2Sum64(data, 2)
	if a == b {
		t.Fatalf("different seeds produced identical digests: %x", a)
	}
}

func TestMurmur2AllTailLengths(t *testing.T) {
	// Exercise every tail-switch branch: lengths 0..32 must all hash without
	// panicking and produce pairwise distinct digests (with overwhelming
	// probability for a good hash).
	seen := make(map[uint64]int)
	for n := 0; n <= 32; n++ {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i + 1)
		}
		d := Murmur2Sum64(data, 7)
		if prev, ok := seen[d]; ok {
			t.Fatalf("lengths %d and %d collided on digest %x", prev, n, d)
		}
		seen[d] = n
	}
}

func TestMurmur2LastByteMatters(t *testing.T) {
	base := []byte("abcdefgh12345")
	alt := append([]byte(nil), base...)
	alt[len(alt)-1] ^= 0xff
	if Murmur2Sum64(base, 0) == Murmur2Sum64(alt, 0) {
		t.Fatal("flipping the final (tail) byte did not change the digest")
	}
}

func TestMurmur2StringMatchesBytes(t *testing.T) {
	keys := []string{"", "a", "short", "exactly-eight!!!", "a considerably longer key that runs to well over sixty-four bytes, so the kernel hashes many full blocks"}
	for _, k := range keys {
		if got, want := Murmur2String64(k, 99), Murmur2Sum64([]byte(k), 99); got != want {
			t.Errorf("Murmur2String64(%q) = %x, want %x", k, got, want)
		}
	}
}

func TestMurmur3Deterministic(t *testing.T) {
	data := []byte("sender@enron.com->recipient@enron.com")
	a1, a2 := Murmur3Sum128(data, 42)
	b1, b2 := Murmur3Sum128(data, 42)
	if a1 != b1 || a2 != b2 {
		t.Fatalf("Murmur3Sum128 not deterministic")
	}
}

func TestMurmur3SeedSensitivity(t *testing.T) {
	data := []byte("element")
	a, _ := Murmur3Sum128(data, 1)
	b, _ := Murmur3Sum128(data, 2)
	if a == b {
		t.Fatalf("different seeds produced identical digests: %x", a)
	}
}

func TestMurmur3AllTailLengths(t *testing.T) {
	seen := make(map[uint64]int)
	for n := 0; n <= 48; n++ {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(200 - i)
		}
		d := Murmur3Sum64(data, 3)
		if prev, ok := seen[d]; ok {
			t.Fatalf("lengths %d and %d collided on digest %x", prev, n, d)
		}
		seen[d] = n
	}
}

func TestMurmur3LanesDiffer(t *testing.T) {
	h1, h2 := Murmur3Sum128([]byte("lane-check"), 5)
	if h1 == h2 {
		t.Fatalf("the two 64-bit lanes are identical: %x", h1)
	}
}

func TestMurmur3StringMatchesBytes(t *testing.T) {
	keys := []string{"", "x", "a string key", string(make([]byte, 200))}
	for _, k := range keys {
		if got, want := Murmur3String64(k, 17), Murmur3Sum64([]byte(k), 17); got != want {
			t.Errorf("Murmur3String64(%q...) = %x, want %x", k, got, want)
		}
	}
}

func TestMurmurAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	// Average over many trials and require the mean to be within [24, 40]
	// out of 64 — a loose band that a broken implementation (e.g. dropped
	// finalizer) fails.
	for _, tc := range []struct {
		name string
		hash func([]byte) uint64
	}{
		{"murmur2", func(b []byte) uint64 { return Murmur2Sum64(b, 1234) }},
		{"murmur3", func(b []byte) uint64 { return Murmur3Sum64(b, 1234) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const trials = 200
			total := 0
			for trial := 0; trial < trials; trial++ {
				base := []byte(fmt.Sprintf("key-%d-with-some-length", trial))
				h0 := tc.hash(base)
				mutated := append([]byte(nil), base...)
				mutated[trial%len(base)] ^= 1 << (trial % 8)
				h1 := tc.hash(mutated)
				total += popcount64(h0 ^ h1)
			}
			mean := float64(total) / trials
			if mean < 24 || mean > 40 {
				t.Fatalf("avalanche mean = %.2f bits, want within [24, 40]", mean)
			}
		})
	}
}

func popcount64(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestMurmurUnitUniformity(t *testing.T) {
	// Hash many distinct keys and check the bucket occupancy of the unit
	// values with a crude chi-square style bound.
	const (
		buckets = 16
		n       = 16000
	)
	for _, kind := range []Kind{KindMurmur2, KindMurmur3} {
		h := New(kind, 777)
		counts := make([]int, buckets)
		for i := 0; i < n; i++ {
			u := h.Unit(fmt.Sprintf("uniformity-key-%d", i))
			if u < 0 || u >= 1 {
				t.Fatalf("unit hash out of range: %v", u)
			}
			counts[int(u*buckets)]++
		}
		expected := float64(n) / buckets
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		// 15 degrees of freedom; 99.9th percentile is about 37.7. Allow 45.
		if chi2 > 45 {
			t.Errorf("kind %v: chi-square %.2f too large; counts %v", kind, chi2, counts)
		}
	}
}

func TestMurmur2QuickBytesVsString(t *testing.T) {
	f := func(data []byte, seed uint64) bool {
		return Murmur2Sum64(data, seed) == Murmur2String64(string(data), seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMurmur3QuickLanesDeterministic(t *testing.T) {
	f := func(data []byte, seed uint64) bool {
		a1, a2 := Murmur3Sum128(data, seed)
		b1, b2 := Murmur3Sum128(append([]byte(nil), data...), seed)
		return a1 == b1 && a2 == b2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestToUnitRange(t *testing.T) {
	cases := []uint64{0, 1, math.MaxUint64, math.MaxUint64 / 2, 1 << 63}
	for _, c := range cases {
		u := ToUnit(c)
		if u < 0 || u >= 1.0000000001 {
			t.Errorf("ToUnit(%d) = %v out of [0,1)", c, u)
		}
	}
	if ToUnit(0) != 0 {
		t.Errorf("ToUnit(0) = %v, want 0", ToUnit(0))
	}
	if ToUnit(math.MaxUint64) <= ToUnit(math.MaxUint64/2) {
		t.Error("ToUnit is not monotone")
	}
}
