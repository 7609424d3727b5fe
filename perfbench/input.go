package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"repro/dds"
	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
)

// input is a pre-generated stream kept light on pointers so that the
// generator's heap does not tax the garbage collector of the system under
// test: keys live in pointer-free string arenas and are handed to the system
// as substrings, which cost no allocation. The feeder reads the stream's
// keys back to back, as a parser would hand them over, so the harness adds
// no random memory access of its own to the ingest path.
type input struct {
	arena   string   // distinct keys back to back, in first-occurrence order
	offs    []uint32 // distinct key id is arena[offs[id]:offs[id+1]]
	ids     []uint32 // the stream: one distinct-key id per element
	stream  string   // the stream's keys back to back
	ends    []uint32 // element i's key is stream[ends[i]:ends[i+1]]
	slotLen int      // elements per slot; 0 puts every element in slot 0
}

// generate builds the seeded stream of n elements with the given shape. It
// follows dataset.Spec.Generate: each element is a new key with probability
// distinctRatio, otherwise a repeat of an already-seen key drawn by a
// bounded Zipf law over first-occurrence rank.
func generate(shape streamShape, n int, slotLen int, seed uint64) *input {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	target := int(math.Round(shape.distinctRatio * float64(n)))
	if target < 1 {
		target = 1
	}
	var arena strings.Builder
	offs := make([]uint32, 1, target+1)
	ids := make([]uint32, n)
	a := shape.zipf
	powN, powFor := 0.0, -1 // n^(1-a), cached per distinct count
	for i := range ids {
		d := len(offs) - 1
		if d == 0 || (d < target && rng.Float64() < shape.distinctRatio) {
			// The seed also picks the key space, so different seeds sample
			// different key sets, not the same keys in another order.
			arena.WriteString(shape.key(int(seed<<32) + d))
			offs = append(offs, uint32(arena.Len()))
			ids[i] = uint32(d)
			continue
		}
		if d != powFor {
			powN, powFor = math.Pow(float64(d), 1-a), d
		}
		u := rng.Float64()
		rank := int(math.Pow(1+u*(powN-1), 1/(1-a)))
		ids[i] = uint32(min(max(rank-1, 0), d-1))
	}
	in := &input{arena: arena.String(), offs: offs, ids: ids, slotLen: slotLen}
	var stream strings.Builder
	stream.Grow(int(offs[len(offs)-1]) / max(len(offs)-1, 1) * n)
	in.ends = make([]uint32, 1, n+1)
	for _, id := range ids {
		stream.WriteString(in.keyOf(id))
		in.ends = append(in.ends, uint32(stream.Len()))
	}
	in.stream = stream.String()
	return in
}

func (in *input) len() int      { return len(in.ids) }
func (in *input) distinct() int { return len(in.offs) - 1 }

// keyOf returns distinct key id.
func (in *input) keyOf(id uint32) string { return in.arena[in.offs[id]:in.offs[id+1]] }

// key returns element i's key.
func (in *input) key(i int) string { return in.stream[in.ends[i]:in.ends[i+1]] }

// slot returns element i's time slot.
func (in *input) slot(i int) int64 {
	if in.slotLen == 0 {
		return 0
	}
	return int64(i / in.slotLen)
}

// lastSlot returns the slot of the final element.
func (in *input) lastSlot() int64 { return in.slot(in.len() - 1) }

// newHasher is the deployment's shared hash function (dds.DefaultSeed): the
// benchmark's seed varies the stream, never the hash.
func newHasher() *hashing.Hasher { return hashing.NewMurmur2(dds.DefaultSeed) }

// expected is what a correct cluster must answer after ingesting the first n
// elements of a stream.
type expected struct {
	keys []string // in ascending hash order
}

// expectInfinite computes the exact bottom-s sample of the first n elements
// with core.Reference. Keys are numbered in first-occurrence order, so the
// prefix's distinct keys are exactly ids 0..max(ids[:n]).
func expectInfinite(in *input, n, sampleSize int) expected {
	var top uint32
	for _, id := range in.ids[:n] {
		top = max(top, id)
	}
	ref := core.NewReference(sampleSize, newHasher())
	for id := uint32(0); id <= top; id++ {
		ref.Observe(in.keyOf(id))
	}
	return expected{keys: ref.SampleKeys()}
}

// expectWindow computes, by brute force, the sliding-window sample after the
// first n elements: the minimum-hash key among the elements whose slot lies
// in the last window slots (ties broken by key, as the cluster merge does).
func expectWindow(in *input, n int, window int64) expected {
	h := newHasher()
	now := in.slot(n - 1)
	best, bestHash := "", 2.0
	for i := n - 1; i >= 0 && in.slot(i) > now-window; i-- {
		k := in.key(i)
		if u := h.Unit(k); u < bestHash || (u == bestHash && k < best) {
			best, bestHash = k, u
		}
	}
	return expected{keys: []string{best}}
}

// check compares a merged sample with the expected one, key for key in hash
// order.
func (e expected) check(got []netsim.SampleEntry) error {
	if len(got) != len(e.keys) {
		return fmt.Errorf("sample has %d entries, reference %d", len(got), len(e.keys))
	}
	for i, g := range got {
		if g.Key != e.keys[i] {
			return fmt.Errorf("sample entry %d is %q, reference %q", i, g.Key, e.keys[i])
		}
	}
	return nil
}
