package hashing

// UnitHasher maps element identifiers to pseudo-random values in [0, 1).
// The distinct samplers rely on three properties that every implementation
// in this package provides:
//
//  1. Determinism: the same key always maps to the same value, across sites
//     and across the coordinator (all nodes share the hasher's seed).
//  2. Uniformity: over a random choice of seed, values are (approximately)
//     independent uniform draws from [0, 1).
//  3. Distinctness: collisions are negligible (64-bit digests), matching the
//     paper's assumption that hash outputs for different elements differ.
type UnitHasher interface {
	// Unit returns the hash of key mapped into [0, 1).
	Unit(key string) float64
	// Hash returns the raw 64-bit digest of key.
	Hash(key string) uint64
	// Seed returns the seed this hasher was constructed with.
	Seed() uint64
}

// unitScale converts a uint64 digest into [0, 1). 1/2^64 as a float64.
const unitScale = 1.0 / (1 << 32) / (1 << 32)

// ToUnit maps a 64-bit digest to [0, 1).
func ToUnit(digest uint64) float64 {
	return float64(digest) * unitScale
}

// Kind selects the underlying digest algorithm of a hasher.
type Kind int

const (
	// KindMurmur2 selects MurmurHash2-64A (the paper's choice).
	KindMurmur2 Kind = iota
	// KindMurmur3 selects MurmurHash3-x64-128 (low lane).
	KindMurmur3
)

// String implements fmt.Stringer for Kind.
func (k Kind) String() string {
	switch k {
	case KindMurmur2:
		return "murmur2"
	case KindMurmur3:
		return "murmur3"
	default:
		return "unknown"
	}
}

// Hasher is the concrete UnitHasher used throughout the repository.
type Hasher struct {
	kind Kind
	seed uint64
}

// New constructs a Hasher of the given kind and seed.
func New(kind Kind, seed uint64) *Hasher {
	return &Hasher{kind: kind, seed: seed}
}

// NewMurmur2 constructs the paper-default MurmurHash2-based hasher.
func NewMurmur2(seed uint64) *Hasher { return New(KindMurmur2, seed) }

// NewMurmur3 constructs a MurmurHash3-based hasher.
func NewMurmur3(seed uint64) *Hasher { return New(KindMurmur3, seed) }

// Hash returns the raw 64-bit digest of key.
func (h *Hasher) Hash(key string) uint64 {
	switch h.kind {
	case KindMurmur3:
		return Murmur3String64(key, h.seed)
	default:
		return Murmur2String64(key, h.seed)
	}
}

// Unit returns the digest of key mapped into [0, 1).
func (h *Hasher) Unit(key string) float64 { return ToUnit(h.Hash(key)) }

// Seed returns the hasher's seed.
func (h *Hasher) Seed() uint64 { return h.seed }

// Kind returns the hasher's digest algorithm.
func (h *Hasher) Kind() Kind { return h.kind }

// Same reports whether a and b compute the same digest for every key: they
// are one instance, or Hashers of one kind and seed. A digest computed under
// one may then stand in for the other's.
func Same(a, b UnitHasher) bool {
	if x, ok := a.(*Hasher); ok {
		y, ok := b.(*Hasher)
		return ok && x.kind == y.kind && x.seed == y.seed
	}
	return a == b
}

// Family is an ordered collection of independent UnitHashers sharing a
// master seed. Sampling with replacement runs s parallel single-element
// samplers, each with its own member of a Family.
type Family struct {
	hashers []*Hasher
}

// NewFamily derives n independent hashers of the given kind from master.
func NewFamily(kind Kind, master uint64, n int) *Family {
	seeds := SeedSequence(master, n)
	hs := make([]*Hasher, n)
	for i, s := range seeds {
		hs[i] = New(kind, s)
	}
	return &Family{hashers: hs}
}

// Size returns the number of hashers in the family.
func (f *Family) Size() int { return len(f.hashers) }

// At returns the i-th hasher of the family.
func (f *Family) At(i int) *Hasher { return f.hashers[i] }
