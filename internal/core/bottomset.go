package core

import (
	"sort"

	"repro/internal/netsim"
)

// bottomSet maintains the s entries with the smallest hash values among the
// distinct keys offered to it, together with the threshold u: the largest
// hash in the set once it is full, or 1 before that. It is the coordinator's
// sample P of Algorithm 2, a bounded site's Bound, and also backs the
// centralized reference sampler.
//
// s is small (tens to a few hundred in every experiment), so the set is kept
// as a slice ordered by hash; insertions cost O(s) which is negligible next
// to hashing and simulation overhead.
type bottomSet struct {
	capacity int
	entries  []netsim.SampleEntry // ordered by ascending hash
	members  map[string]struct{}
}

func newBottomSet(capacity int) *bottomSet {
	if capacity < 1 {
		capacity = 1
	}
	return &bottomSet{capacity: capacity, members: make(map[string]struct{}, capacity)}
}

// Threshold returns u: 1 while the set holds fewer than capacity entries,
// afterwards the largest stored hash.
func (b *bottomSet) Threshold() float64 {
	if len(b.entries) < b.capacity {
		return 1
	}
	return b.entries[len(b.entries)-1].Hash
}

// Len returns the number of stored entries.
func (b *bottomSet) Len() int { return len(b.entries) }

// Contains reports whether key is currently in the sample.
func (b *bottomSet) Contains(key string) bool {
	_, ok := b.members[key]
	return ok
}

// Offer presents a (key, hash) pair. It returns true when the offer changed
// the sample (the key was inserted, possibly evicting the current maximum).
// Offers of keys already in the sample and offers whose hash does not beat
// the threshold leave the sample unchanged.
func (b *bottomSet) Offer(key string, hash float64) bool {
	if hash >= b.Threshold() {
		return false
	}
	if b.Contains(key) {
		return false
	}
	// Insert in hash order.
	pos := sort.Search(len(b.entries), func(i int) bool { return b.entries[i].Hash >= hash })
	b.entries = append(b.entries, netsim.SampleEntry{})
	copy(b.entries[pos+1:], b.entries[pos:])
	b.entries[pos] = netsim.SampleEntry{Key: key, Hash: hash}
	b.members[key] = struct{}{}
	// Evict the largest hash if over capacity.
	if len(b.entries) > b.capacity {
		evicted := b.entries[len(b.entries)-1]
		b.entries = b.entries[:len(b.entries)-1]
		delete(b.members, evicted.Key)
	}
	return true
}

// Restore replaces the set's contents with the given entries (at most
// capacity survive; the smallest hashes win). It is the replication
// primitive: a replica applying the primary's state frame ends up with the
// identical bottom-s state, and re-applying the same frame is a no-op.
func (b *bottomSet) Restore(entries []netsim.SampleEntry) {
	b.entries = b.entries[:0]
	for k := range b.members {
		delete(b.members, k)
	}
	for _, e := range entries {
		b.Offer(e.Key, e.Hash)
	}
}

// Entries returns a copy of the sample ordered by ascending hash.
func (b *bottomSet) Entries() []netsim.SampleEntry {
	return append([]netsim.SampleEntry(nil), b.entries...)
}

// Keys returns the sampled keys ordered by ascending hash.
func (b *bottomSet) Keys() []string {
	keys := make([]string, len(b.entries))
	for i, e := range b.entries {
		keys[i] = e.Key
	}
	return keys
}
