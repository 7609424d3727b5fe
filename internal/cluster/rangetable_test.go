package cluster

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/hashing"
)

// legacyShard is the pre-resharding fixed router: floor(mix(digest) * C /
// 2^64) via a 128-bit multiply. UniformTable must reproduce it exactly, or a
// rolling upgrade would re-partition the key space.
func legacyShard(hasher hashing.UnitHasher, shards int, key string) int {
	mixed := hashing.Mix64(hasher.Hash(key))
	hi, _ := bits.Mul64(mixed, uint64(shards))
	return int(hi)
}

func TestUniformTableMatchesLegacyRouting(t *testing.T) {
	hasher := hashing.NewMurmur2(7)
	for _, shards := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		router := NewShardRouter(shards, hasher)
		if err := router.Table().Validate(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := 0; i < 5000; i++ {
			key := fmt.Sprintf("key-%d", i)
			if got, want := router.Shard(key), legacyShard(hasher, shards, key); got != want {
				t.Fatalf("shards=%d key %q: table routes to %d, legacy router to %d", shards, key, got, want)
			}
		}
	}
}

// probePoints returns the table's boundary-adjacent routing hashes plus a
// deterministic spread of interior points — the inputs most likely to expose
// an off-by-one in range ownership.
func probePoints(t RangeTable, rng *rand.Rand) []uint64 {
	points := []uint64{0, 1, ^uint64(0)}
	for _, b := range t.Bounds {
		points = append(points, b)
		if b > 0 {
			points = append(points, b-1)
		}
		points = append(points, b+1)
	}
	for i := 0; i < 64; i++ {
		points = append(points, rng.Uint64())
	}
	return points
}

// owners counts, by brute force over the range list, how many ranges contain
// x — the "every key routed to exactly one shard" property, checked without
// going through Lookup.
func owners(t RangeTable, x uint64) []int {
	var own []int
	for i := range t.Bounds {
		lo := t.Bounds[i]
		hi := uint64(0)
		if i+1 < len(t.Bounds) {
			hi = t.Bounds[i+1]
		}
		if x >= lo && (hi == 0 || x < hi) {
			own = append(own, t.Slots[i])
		}
	}
	return own
}

// TestRangeTablePartitionProperty drives random split/merge plan sequences
// and asserts, after every plan, that the table stays valid and that every
// probed routing hash is owned by exactly one shard slot — no key routed to
// zero or two shards after any plan.
func TestRangeTablePartitionProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		table := UniformTable(1 + rng.Intn(5))
		nextSlot := table.NumRanges()
		for step := 0; step < 40; step++ {
			split := table.NumRanges() == 1 || rng.Intn(2) == 0
			if split {
				idx := rng.Intn(table.NumRanges())
				slot := table.Slots[idx]
				mid, err := table.SplitPoint(slot, 0.1+0.8*rng.Float64())
				if err != nil {
					t.Fatal(err)
				}
				next, err := table.Split(slot, mid, nextSlot)
				if err != nil {
					t.Fatalf("seed %d step %d: split slot %d at %#x: %v", seed, step, slot, mid, err)
				}
				table = next
				nextSlot++
			} else {
				idx := rng.Intn(table.NumRanges() - 1)
				next, survivor, retired, err := table.Merge(idx)
				if err != nil {
					t.Fatalf("seed %d step %d: merge range %d: %v", seed, step, idx, err)
				}
				if survivor == retired {
					t.Fatalf("seed %d step %d: merge retired the survivor", seed, step)
				}
				table = next
			}
			if err := table.Validate(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if table.Version != uint64(step)+2 {
				t.Fatalf("seed %d step %d: version %d, want %d", seed, step, table.Version, step+2)
			}
			for _, x := range probePoints(table, rng) {
				own := owners(table, x)
				if len(own) != 1 {
					t.Fatalf("seed %d step %d: hash %#x owned by %v (want exactly one slot)", seed, step, x, own)
				}
				if got := table.Lookup(x); got != own[0] {
					t.Fatalf("seed %d step %d: Lookup(%#x) = %d, brute force says %d", seed, step, x, got, own[0])
				}
			}
		}
	}
}

// TestRangeTableLookupEveryTableSize checks the branch-free search against
// the brute-force owner at every table size from 1 to 64 ranges, uniform and
// randomly split (ranges of uneven width, slots out of order), on every
// bound, both its neighbours, and both ends of the hash space — where an
// off-by-one comparison or a search that stops a round early shows.
func TestRangeTableLookupEveryTableSize(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 1; n <= 64; n++ {
		split := UniformTable(1)
		for split.NumRanges() < n {
			slot := split.Slots[rng.Intn(split.NumRanges())]
			mid, err := split.SplitPoint(slot, 0.05+0.9*rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			if split, err = split.Split(slot, mid, split.MaxSlot()+1); err != nil {
				t.Fatal(err)
			}
		}
		for _, table := range []RangeTable{UniformTable(n), split} {
			points := []uint64{0, ^uint64(0)}
			for _, b := range table.Bounds {
				points = append(points, b-1, b, b+1)
			}
			for _, x := range points {
				own := owners(table, x)
				if len(own) != 1 {
					t.Fatalf("%d ranges: hash %#x owned by %v", n, x, own)
				}
				if got := table.Lookup(x); got != own[0] {
					t.Fatalf("%d ranges %v: Lookup(%#x) = slot %d, owner is slot %d", n, table.Bounds, x, got, own[0])
				}
			}
		}
	}
}

// lookupSink keeps BenchmarkRangeTableLookup's results alive.
var lookupSink int

// BenchmarkRangeTableLookup times routing one uniform hash, the per-arrival
// cost of Lookup, at the smallest cluster and at a resharded one.
func BenchmarkRangeTableLookup(b *testing.B) {
	for _, n := range []int{2, 32} {
		b.Run(fmt.Sprintf("ranges=%d", n), func(b *testing.B) {
			table := UniformTable(n)
			rng := rand.New(rand.NewSource(1))
			xs := make([]uint64, 4096)
			for i := range xs {
				xs[i] = rng.Uint64()
			}
			sum := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum += table.Lookup(xs[i&(len(xs)-1)])
			}
			lookupSink = sum
		})
	}
}

func TestRangeTableRejectsBadPlans(t *testing.T) {
	table := UniformTable(2)
	lo, hi, ok := table.RangeOf(1)
	if !ok || lo == 0 || hi != 0 {
		t.Fatalf("unexpected range for slot 1: [%#x, %#x) ok=%v", lo, hi, ok)
	}
	if _, err := table.Split(1, lo, 2); err == nil {
		t.Fatal("split at the range's own lower bound must fail")
	}
	if _, err := table.Split(5, lo+1, 2); err == nil {
		t.Fatal("split of an unknown slot must fail")
	}
	if _, err := table.Split(0, lo+1, 2); err == nil {
		t.Fatal("split point outside the slot's range must fail")
	}
	if _, err := table.Split(0, lo/2, 1); err == nil {
		t.Fatal("split assigning an already-owning slot must fail")
	}
	if _, _, _, err := table.Merge(1); err == nil {
		t.Fatal("merge of the last range with nothing to its right must fail")
	}
	if _, _, _, err := table.Merge(-1); err == nil {
		t.Fatal("merge at negative index must fail")
	}
	// A valid split then merge round-trips the partition (though not the
	// version, which ratchets).
	next, err := table.Split(0, lo/2, 2)
	if err != nil {
		t.Fatal(err)
	}
	back, survivor, retired, err := next.Merge(0)
	if err != nil {
		t.Fatal(err)
	}
	if survivor != 0 || retired != 2 {
		t.Fatalf("merge survivor/retired = %d/%d, want 0/2", survivor, retired)
	}
	if len(back.Bounds) != 2 || back.Bounds[1] != lo || back.Slots[0] != 0 || back.Slots[1] != 1 {
		t.Fatalf("split+merge did not restore the partition: %+v", back)
	}
}
