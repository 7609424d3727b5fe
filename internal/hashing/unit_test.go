package hashing

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestSplitMix64Sequence(t *testing.T) {
	state := uint64(1)
	var outs []uint64
	for i := 0; i < 5; i++ {
		var out uint64
		state, out = SplitMix64(state)
		outs = append(outs, out)
	}
	// All outputs distinct and the sequence reproducible.
	seen := make(map[uint64]bool)
	for _, o := range outs {
		if seen[o] {
			t.Fatalf("SplitMix64 repeated output %x within 5 draws", o)
		}
		seen[o] = true
	}
	state2 := uint64(1)
	for i := 0; i < 5; i++ {
		var out uint64
		state2, out = SplitMix64(state2)
		if out != outs[i] {
			t.Fatalf("SplitMix64 not reproducible at step %d", i)
		}
	}
}

func TestMix64Bijective(t *testing.T) {
	// Mix64 is a bijection on uint64; at small scale check injectivity.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 4096; i++ {
		m := Mix64(i)
		if prev, ok := seen[m]; ok {
			t.Fatalf("Mix64 collision: %d and %d both map to %x", prev, i, m)
		}
		seen[m] = i
	}
}

func TestSeedSequenceIndependence(t *testing.T) {
	seeds := SeedSequence(12345, 64)
	if len(seeds) != 64 {
		t.Fatalf("expected 64 seeds, got %d", len(seeds))
	}
	seen := make(map[uint64]bool)
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %x", s)
		}
		seen[s] = true
	}
	// Different masters give different sequences.
	other := SeedSequence(54321, 64)
	same := 0
	for i := range seeds {
		if seeds[i] == other[i] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d seeds coincide between different masters", same)
	}
}

func TestSeedSequenceEmpty(t *testing.T) {
	if got := SeedSequence(1, 0); len(got) != 0 {
		t.Fatalf("SeedSequence(_, 0) returned %d seeds", len(got))
	}
}

func TestHasherKinds(t *testing.T) {
	for _, kind := range []Kind{KindMurmur2, KindMurmur3} {
		h := New(kind, 9)
		if h.Seed() != 9 {
			t.Errorf("kind %v: Seed() = %d, want 9", kind, h.Seed())
		}
		if h.Kind() != kind {
			t.Errorf("Kind() mismatch for %v", kind)
		}
		u1 := h.Unit("alpha")
		u2 := h.Unit("alpha")
		if u1 != u2 {
			t.Errorf("kind %v: Unit not deterministic", kind)
		}
		if u1 < 0 || u1 >= 1 {
			t.Errorf("kind %v: Unit out of range: %v", kind, u1)
		}
		if ToUnit(h.Hash("alpha")) != u1 {
			t.Errorf("kind %v: Unit disagrees with ToUnit(Hash)", kind)
		}
	}
}

func TestHasherKindString(t *testing.T) {
	cases := map[Kind]string{KindMurmur2: "murmur2", KindMurmur3: "murmur3", Kind(99): "unknown"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestHasherDifferentKindsDisagree(t *testing.T) {
	// Same seed, same key, different algorithms should (essentially always)
	// give different digests.
	m2 := NewMurmur2(11)
	m3 := NewMurmur3(11)
	if m2.Hash("some key") == m3.Hash("some key") {
		t.Fatal("murmur2 and murmur3 digests coincide; suspicious")
	}
}

// wrappedHasher forwards to a Hasher, like a counting or timing wrapper.
type wrappedHasher struct{ UnitHasher }

func TestSameHasher(t *testing.T) {
	h := NewMurmur2(11)
	w := &wrappedHasher{h}
	for _, tc := range []struct {
		name string
		a, b UnitHasher
		want bool
	}{
		{"one instance", h, h, true},
		{"same kind and seed", h, NewMurmur2(11), true},
		{"other seed", h, NewMurmur2(12), false},
		{"other kind", h, NewMurmur3(11), false},
		{"one wrapper instance", w, w, true},
		{"wrapper and its inner hasher", w, h, false},
		{"inner hasher and its wrapper", h, w, false},
		{"two wrappers of one hasher", w, &wrappedHasher{h}, false},
	} {
		if got := Same(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: Same = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestFamilyIndependence(t *testing.T) {
	fam := NewFamily(KindMurmur2, 1000, 8)
	if fam.Size() != 8 {
		t.Fatalf("family size = %d, want 8", fam.Size())
	}
	// Each member must produce a different value for the same key.
	seen := make(map[uint64]bool)
	for i := 0; i < fam.Size(); i++ {
		d := fam.At(i).Hash("shared-key")
		if seen[d] {
			t.Fatalf("family members %d produced duplicate digest", i)
		}
		seen[d] = true
	}
	// Same master seed reproduces the same family.
	fam2 := NewFamily(KindMurmur2, 1000, 8)
	for i := 0; i < 8; i++ {
		if fam.At(i).Hash("k") != fam2.At(i).Hash("k") {
			t.Fatalf("family not reproducible at member %d", i)
		}
	}
}

func TestFamilyCrossCorrelation(t *testing.T) {
	// Two members of a family should not rank keys in the same order: the
	// element with the minimum hash under member 0 should usually differ
	// from the minimum under member 1.
	fam := NewFamily(KindMurmur2, 2024, 2)
	agree := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		best0, best1 := "", ""
		min0, min1 := 2.0, 2.0
		for i := 0; i < 100; i++ {
			key := fmt.Sprintf("t%d-k%d", trial, i)
			if u := fam.At(0).Unit(key); u < min0 {
				min0, best0 = u, key
			}
			if u := fam.At(1).Unit(key); u < min1 {
				min1, best1 = u, key
			}
		}
		if best0 == best1 {
			agree++
		}
	}
	// Expected agreement is about trials/100; allow a generous margin.
	if agree > trials/4 {
		t.Fatalf("family members agree on the minimum too often: %d/%d", agree, trials)
	}
}

func TestHasherQuickUnitInRange(t *testing.T) {
	h := NewMurmur2(5)
	f := func(key string) bool {
		u := h.Unit(key)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
