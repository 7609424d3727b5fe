package core

import (
	"fmt"

	"repro/internal/hashing"
	"repro/internal/netsim"
)

// InfiniteSite is the per-site half of the infinite-window protocol
// (Algorithm 1). Its primary state is one float: u_i, the site's local view
// of the global threshold, initialized to 1.
//
// One refinement beyond the paper's pseudocode: the analysis (the paragraph
// before Lemma 2) charges no communication for repeated occurrences of an
// element, but the literal Algorithm 1 re-offers a repeat whenever its hash
// is still below u_i — which is exactly the case for elements currently in
// the coordinator's sample, so an adversary repeating a sampled element
// would make the cost grow with n rather than d. To realize the analysis,
// the site remembers the keys it has already offered whose hash is still
// below its threshold and never re-offers them. Any repeat whose hash beats
// u_i must have beaten it at its first occurrence too (u_i is
// non-increasing), so the key is guaranteed to be in this memo; suppression
// therefore never loses information the coordinator does not already have.
// The memo only retains keys below the current threshold, so its expected
// size is O(s). NewNaiveInfiniteSite builds the literal-pseudocode site for
// the ablation experiment that quantifies the difference.
//
// A bounded site (NewBoundedInfiniteSite, NewSharedInfiniteSite) filters
// instead against a Bound: the bottom-s set of the distinct keys offered
// through it, the coordinator's own bottomSet. It offers an arrival exactly
// when h < u_i and the set accepts it, that is when h < L, the s-th smallest
// hash in the set (1 while it holds fewer than s keys), and the key is not
// in the set. That is also an exact duplicate test: every key offered through
// the bound whose hash is below L is in the set. L is the s-th smallest hash
// of s distinct stream keys, so it is never below the final threshold of the
// sample merged over all shards, and an arrival it drops can never enter
// that sample. In the paper's zero-delay model a site with a bound of its
// own has u_i <= L, so the bound never fires; over a pipelined transport,
// where replies lag, it drops what the coordinator would refuse by then. The
// sites a client opens to its C shards share one Bound, so L is the
// client-wide bound and the client sends one protocol's offers, not C; a
// shard then no longer ends with its range's bottom-s, and only the merged
// sample is exact. Only the arrival path (the caller's goroutine) writes the
// set: OnMessage, which a client runs on per-shard goroutines at once,
// touches u_i alone.
type InfiniteSite struct {
	id      int
	hasher  hashing.UnitHasher
	u       float64
	offered map[string]float64 // unbounded: keys already sent whose hash is still < u
	bound   *bottomSet         // bounded: the Bound's set; nil otherwise
	naive   bool               // literal Algorithm 1: no duplicate suppression
}

// Bound is the bottom-s set of the distinct keys offered through the bounded
// sites that share it (see InfiniteSite). Only one goroutine may run those
// sites' arrivals.
type Bound struct{ set *bottomSet }

// NewBound returns an empty bound of rank s, which must be the coordinators'
// sample size: a smaller s would drop keys the sample needs.
func NewBound(s int) *Bound { return &Bound{set: newBottomSet(s)} }

// NewInfiniteSite constructs the site with index id. All sites and the
// coordinator must share the same hash function, mirroring the paper's
// initialization step in which the coordinator distributes h.
func NewInfiniteSite(id int, hasher hashing.UnitHasher) *InfiniteSite {
	return &InfiniteSite{id: id, hasher: hasher, u: 1, offered: make(map[string]float64)}
}

// NewBoundedInfiniteSite constructs a site that filters against a bound of
// its own, of rank s, the coordinator's sample size (see InfiniteSite). Its
// coordinator's replies and final sample are those of NewInfiniteSite's;
// only the offers that coordinator would refuse anyway are never sent.
func NewBoundedInfiniteSite(id int, hasher hashing.UnitHasher, s int) *InfiniteSite {
	return NewSharedInfiniteSite(id, hasher, NewBound(s))
}

// NewSharedInfiniteSite constructs a site that filters against bound, which
// the sites one client opens to the other shards share: the client then
// sends the offers of one site talking to one coordinator. Only the merged
// sample of its coordinators is exact; a shard's own sample may miss keys of
// its range that another shard's offers outrank.
func NewSharedInfiniteSite(id int, hasher hashing.UnitHasher, bound *Bound) *InfiniteSite {
	return &InfiniteSite{id: id, hasher: hasher, u: 1, bound: bound.set}
}

// NewNaiveInfiniteSite constructs a site that follows Algorithm 1 to the
// letter: strictly one float of state, but repeats of currently-sampled
// elements are re-offered. Used by the duplicate-suppression ablation.
func NewNaiveInfiniteSite(id int, hasher hashing.UnitHasher) *InfiniteSite {
	return &InfiniteSite{id: id, hasher: hasher, u: 1, naive: true}
}

// ID implements netsim.SiteNode.
func (s *InfiniteSite) ID() int { return s.id }

// Threshold returns the site's current local threshold u_i (for tests and
// invariant checks).
func (s *InfiniteSite) Threshold() float64 { return s.u }

// SampleSize returns the bound's rank s, or 0 for a site without a bound. A
// site client announces it at hello, so that a coordinator of another sample
// size refuses the site before it drops a key that coordinator needs.
func (s *InfiniteSite) SampleSize() int {
	if s.bound == nil {
		return 0
	}
	return s.bound.capacity
}

// Hasher implements netsim.DigestSite: the hash function the site filters
// with.
func (s *InfiniteSite) Hasher() hashing.UnitHasher { return s.hasher }

// OnArrival implements netsim.SiteNode: if h(e) < u_i (and, unless the site
// is naive, e has not been offered before), send e and its hash to the
// coordinator.
func (s *InfiniteSite) OnArrival(key string, _ int64, out *netsim.Outbox) {
	s.arrive(key, s.hasher.Unit(key), out)
}

// OnDigest implements netsim.DigestSite: OnArrival for a key whose digest
// under the site's hasher is d.
func (s *InfiniteSite) OnDigest(key string, d uint64, _ int64, out *netsim.Outbox) {
	s.arrive(key, hashing.ToUnit(d), out)
}

// arrive is Algorithm 1's filter for key, whose unit hash is h. Only the
// threshold test is here, so that the common drop inlines into OnDigest.
func (s *InfiniteSite) arrive(key string, h float64, out *netsim.Outbox) {
	if h >= s.u {
		return
	}
	s.offer(key, h, out)
}

// offer is the rest of arrive's filter, for a key whose hash beats u_i: the
// bound, or the duplicate memo.
func (s *InfiniteSite) offer(key string, h float64, out *netsim.Outbox) {
	switch {
	case s.bound != nil:
		if !s.bound.Offer(key, h) {
			return
		}
	case !s.naive:
		if _, already := s.offered[key]; already {
			return
		}
		s.offered[key] = h
	}
	out.ToCoordinator(netsim.Message{Kind: netsim.KindOffer, Key: key, Hash: h})
}

var _ netsim.DigestSite = (*InfiniteSite)(nil)

// OnMessage implements netsim.SiteNode: the coordinator's reply refreshes
// the local threshold, and memo keys that can no longer beat it are
// forgotten. A bounded site has no memo, and leaves its bound alone.
func (s *InfiniteSite) OnMessage(msg netsim.Message, _ int64, _ *netsim.Outbox) {
	if msg.Kind != netsim.KindThreshold {
		return
	}
	s.u = msg.U
	for key, h := range s.offered {
		if h >= s.u {
			delete(s.offered, key)
		}
	}
}

// OnSlotEnd implements netsim.SiteNode. The infinite-window site has no
// time-driven behaviour.
func (s *InfiniteSite) OnSlotEnd(int64, *netsim.Outbox) {}

// Memory implements netsim.SiteNode: the threshold plus the duplicate memo,
// or the bound's set, which counts at every site that shares it.
func (s *InfiniteSite) Memory() int {
	if s.bound != nil {
		return 1 + s.bound.Len()
	}
	return 1 + len(s.offered)
}

// InfiniteCoordinator is the coordinator half of the infinite-window
// protocol (Algorithm 2). It keeps the sample P (the bottom-s set of hashes
// over distinct elements that reached it) and the threshold u, and answers
// every site offer with the current u.
type InfiniteCoordinator struct {
	sampleSize int
	sample     *bottomSet
}

// NewInfiniteCoordinator constructs the coordinator for sample size s.
func NewInfiniteCoordinator(sampleSize int) *InfiniteCoordinator {
	return &InfiniteCoordinator{sampleSize: sampleSize, sample: newBottomSet(sampleSize)}
}

// Threshold returns the coordinator's current threshold u.
func (c *InfiniteCoordinator) Threshold() float64 { return c.sample.Threshold() }

// SampleSize returns the coordinator's sample size s. A coordinator server
// refuses a bounded site whose s differs (see NewBoundedInfiniteSite).
func (c *InfiniteCoordinator) SampleSize() int { return c.sampleSize }

// OnMessage implements netsim.CoordinatorNode.
func (c *InfiniteCoordinator) OnMessage(msg netsim.Message, _ int64, out *netsim.Outbox) {
	if msg.Kind != netsim.KindOffer {
		return
	}
	c.sample.Offer(msg.Key, msg.Hash)
	// Always reply, refreshing the sender's local view of u (Algorithm 2
	// line 11 replies regardless of whether the sample changed).
	out.ToSite(msg.From, netsim.Message{Kind: netsim.KindThreshold, U: c.sample.Threshold()})
}

// OnSlotEnd implements netsim.CoordinatorNode (no time-driven behaviour).
func (c *InfiniteCoordinator) OnSlotEnd(int64, *netsim.Outbox) {}

// Offer implements Sampler: present one element with its precomputed hash.
// Slot, expiry, and copy are ignored — the infinite window has no time
// semantics and a single sketch.
func (c *InfiniteCoordinator) Offer(o Offer) bool {
	return c.sample.Offer(o.Key, o.Hash)
}

// Snapshot implements Sampler: the coordinator's whole state is its bottom-s
// sample, captured as a single-section infinite-kind State.
func (c *InfiniteCoordinator) Snapshot() State {
	return State{
		Version:    StateVersion,
		Kind:       StateInfinite,
		SampleSize: c.sampleSize,
		Sections:   []SectionState{{Entries: c.sample.Entries()}},
	}
}

// Restore implements Sampler: replace the coordinator's state with the
// snapshot. Every entry is re-offered, so restoring a merged state (see
// MergeStates) yields exactly the bottom-s of the union.
func (c *InfiniteCoordinator) Restore(st State) error {
	if err := st.validate(StateInfinite, c.sampleSize); err != nil {
		return err
	}
	if len(st.Sections) != 1 {
		return fmt.Errorf("core: infinite snapshot has %d sections, want 1", len(st.Sections))
	}
	entries := st.Sections[0].Entries
	if cand := st.Sections[0].Candidate; cand != nil {
		entries = append(append([]netsim.SampleEntry(nil), entries...), *cand)
	}
	c.sample.Restore(entries)
	return nil
}

var _ Sampler = (*InfiniteCoordinator)(nil)

// Sample implements netsim.CoordinatorNode: the current distinct sample,
// ordered by ascending hash.
func (c *InfiniteCoordinator) Sample() []netsim.SampleEntry { return c.sample.Entries() }

// SampleKeys returns just the sampled keys.
func (c *InfiniteCoordinator) SampleKeys() []string { return c.sample.Keys() }

// System bundles the k sites and the coordinator of one protocol instance,
// ready to be handed to a netsim.Runner.
type System struct {
	Sites       []netsim.SiteNode
	Coordinator netsim.CoordinatorNode
}

// Runner returns a netsim.Runner over the system's nodes with the given
// instrumentation settings.
func (sys *System) Runner(timelineEvery int, memoryEvery int64) *netsim.Runner {
	return &netsim.Runner{
		Sites:         sys.Sites,
		Coordinator:   sys.Coordinator,
		TimelineEvery: timelineEvery,
		MemoryEvery:   memoryEvery,
	}
}

// NewSystem constructs a complete infinite-window sampling system: k sites
// and one coordinator maintaining a distinct sample of size sampleSize, all
// sharing hasher.
func NewSystem(k, sampleSize int, hasher hashing.UnitHasher) *System {
	sites := make([]netsim.SiteNode, k)
	for i := range sites {
		sites[i] = NewInfiniteSite(i, hasher)
	}
	return &System{Sites: sites, Coordinator: NewInfiniteCoordinator(sampleSize)}
}

// NewNaiveSystem constructs the literal-pseudocode variant of the system
// (sites without duplicate suppression). Used by the ablation experiment
// that quantifies how much repeat traffic the memo removes.
func NewNaiveSystem(k, sampleSize int, hasher hashing.UnitHasher) *System {
	sites := make([]netsim.SiteNode, k)
	for i := range sites {
		sites[i] = NewNaiveInfiniteSite(i, hasher)
	}
	return &System{Sites: sites, Coordinator: NewInfiniteCoordinator(sampleSize)}
}
