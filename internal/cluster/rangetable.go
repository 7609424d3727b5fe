package cluster

import (
	"fmt"
	"math/bits"
)

// RangeTable is a versioned partition of the 64-bit routing-hash space into
// contiguous half-open ranges, one per live shard slot. It generalizes the
// original fixed C-way prefix partition so that shards can be split and
// merged online: a split cuts one range in two and hands the upper part to a
// freshly added slot, a merge gives an adjacent range to its left neighbour
// and retires the absorbed slot. Every key routes to exactly one slot under
// every table (Validate enforces the invariants; the property tests in
// rangetable_test.go drive random plan sequences against them).
//
// Bounds[i] is the inclusive lower bound of range i; range i covers
// [Bounds[i], Bounds[i+1]), with the last range extending to 2^64.
// Bounds[0] is always 0, so the ranges cover the space exactly once with no
// gaps by construction. Slots[i] names the shard slot owning range i; slot
// indices are stable across reshards (a retired slot's index is never
// reused), which is what lets site clients and servers keep per-slot
// connections and groups in plain slices across plan applications.
//
// Version is the resharding fence: it increments on every plan, site clients
// only ever move to a strictly newer table, and coordinators reject route
// frames stamped below the version they have applied.
type RangeTable struct {
	Version uint64   `json:"version"`
	Bounds  []uint64 `json:"bounds"`
	Slots   []int    `json:"slots"`
}

// UniformTable returns version-1 of a table partitioning the space into
// `shards` equal prefix ranges owned by slots 0..shards-1 — exactly the
// partition the original fixed router used, so a cluster that never reshards
// routes identically to the pre-resharding implementation.
func UniformTable(shards int) RangeTable {
	if shards < 1 {
		shards = 1
	}
	t := RangeTable{Version: 1, Bounds: make([]uint64, shards), Slots: make([]int, shards)}
	for i := 0; i < shards; i++ {
		// The fixed router assigned x to floor(x*C / 2^64), so range i starts
		// at ceil(i * 2^64 / C), computed exactly with a 128-bit division.
		q, r := bits.Div64(uint64(i), 0, uint64(shards))
		if r > 0 {
			q++
		}
		t.Bounds[i] = q
		t.Slots[i] = i
	}
	return t
}

// Lookup returns the slot owning routing hash x: the slot of the last range
// whose lower bound is at most x. It runs on every arrival, so it is a
// branch-free binary search — routing hashes are uniform, and a comparison
// branch would be mispredicted half the time. [lo, lo+n) always holds the
// answer (Bounds[0] is 0, so there is one); each round keeps the half that
// holds it, the upper one exactly when Bounds[lo+half] <= x, selected by a
// borrow mask instead of a branch.
func (t *RangeTable) Lookup(x uint64) int {
	b := t.Bounds
	lo, n := 0, len(b)
	for n > 1 {
		half := n / 2
		_, borrow := bits.Sub64(x, b[lo+half], 0) // 1 iff x < Bounds[lo+half]
		lo += half & (int(borrow) - 1)
		n -= half
	}
	return t.Slots[lo]
}

// NumRanges returns the number of ranges (= live slots).
func (t RangeTable) NumRanges() int { return len(t.Bounds) }

// MaxSlot returns the highest slot index referenced by the table, -1 for an
// empty table. Slot-indexed slices (connections, groups) must have length
// MaxSlot()+1.
func (t RangeTable) MaxSlot() int {
	max := -1
	for _, s := range t.Slots {
		if s > max {
			max = s
		}
	}
	return max
}

// RangeOf returns the half-open range [lo, hi) owned by slot (hi == 0 means
// 2^64), and whether the slot owns a range in this table.
func (t RangeTable) RangeOf(slot int) (lo, hi uint64, ok bool) {
	for i, s := range t.Slots {
		if s != slot {
			continue
		}
		hi := uint64(0)
		if i+1 < len(t.Bounds) {
			hi = t.Bounds[i+1]
		}
		return t.Bounds[i], hi, true
	}
	return 0, 0, false
}

// RangeIndexOf returns the range index owned by slot, or -1.
func (t RangeTable) RangeIndexOf(slot int) int {
	for i, s := range t.Slots {
		if s == slot {
			return i
		}
	}
	return -1
}

// Validate checks the table invariants: at least one range, bounds starting
// at 0 and strictly ascending (so the ranges are non-empty, disjoint, and
// cover the space exactly once), and each live slot owning exactly one range.
func (t RangeTable) Validate() error {
	if len(t.Bounds) == 0 || len(t.Bounds) != len(t.Slots) {
		return fmt.Errorf("cluster: range table with %d bounds and %d slots", len(t.Bounds), len(t.Slots))
	}
	if t.Bounds[0] != 0 {
		return fmt.Errorf("cluster: range table does not start at 0 (first bound %d)", t.Bounds[0])
	}
	seen := make(map[int]struct{}, len(t.Slots))
	for i, s := range t.Slots {
		if i > 0 && t.Bounds[i] <= t.Bounds[i-1] {
			return fmt.Errorf("cluster: range table bounds not strictly ascending at %d", i)
		}
		if s < 0 {
			return fmt.Errorf("cluster: negative slot %d in range table", s)
		}
		if _, dup := seen[s]; dup {
			return fmt.Errorf("cluster: slot %d owns two ranges", s)
		}
		seen[s] = struct{}{}
	}
	return nil
}

// clone returns a deep copy so plan application never aliases a published
// table (site clients read their own copies without locks).
func (t RangeTable) clone() RangeTable {
	return RangeTable{
		Version: t.Version,
		Bounds:  append([]uint64(nil), t.Bounds...),
		Slots:   append([]int(nil), t.Slots...),
	}
}

// Split returns the next-version table in which the range owned by slot is
// cut at mid: slot keeps [lo, mid) and newSlot takes [mid, hi). mid must lie
// strictly inside the range and newSlot must not already own one.
func (t RangeTable) Split(slot int, mid uint64, newSlot int) (RangeTable, error) {
	i := t.RangeIndexOf(slot)
	if i < 0 {
		return RangeTable{}, fmt.Errorf("cluster: split: slot %d owns no range", slot)
	}
	if t.RangeIndexOf(newSlot) >= 0 {
		return RangeTable{}, fmt.Errorf("cluster: split: slot %d already owns a range", newSlot)
	}
	lo, hi, _ := t.RangeOf(slot)
	if mid <= lo || (hi != 0 && mid >= hi) {
		return RangeTable{}, fmt.Errorf("cluster: split point %#x outside range [%#x, %#x)", mid, lo, hi)
	}
	next := t.clone()
	next.Version++
	next.Bounds = append(next.Bounds, 0)
	next.Slots = append(next.Slots, 0)
	copy(next.Bounds[i+2:], next.Bounds[i+1:])
	copy(next.Slots[i+2:], next.Slots[i+1:])
	next.Bounds[i+1], next.Slots[i+1] = mid, newSlot
	return next, next.Validate()
}

// Merge returns the next-version table in which range rangeIdx absorbs the
// adjacent range to its right: the left range's slot keeps its index and now
// owns the union, and the right range's slot is retired from the table.
func (t RangeTable) Merge(rangeIdx int) (next RangeTable, survivor, retired int, err error) {
	if rangeIdx < 0 || rangeIdx+1 >= len(t.Bounds) {
		return RangeTable{}, 0, 0, fmt.Errorf("cluster: merge: no adjacent range pair at index %d", rangeIdx)
	}
	next = t.clone()
	next.Version++
	survivor, retired = next.Slots[rangeIdx], next.Slots[rangeIdx+1]
	next.Bounds = append(next.Bounds[:rangeIdx+1], next.Bounds[rangeIdx+2:]...)
	next.Slots = append(next.Slots[:rangeIdx+1], next.Slots[rangeIdx+2:]...)
	return next, survivor, retired, next.Validate()
}
