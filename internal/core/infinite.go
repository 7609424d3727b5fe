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
// A bounded site (NewBoundedInfiniteSite) also counts its own offers. The
// memo's keys are distinct keys the site has sent, and the coordinator
// receives them, in order, before anything the site sends later. So by the
// time the coordinator reaches the site's next offer, it holds at least s
// keys with hash at most L, the s-th smallest hash among the memo's keys,
// and refuses any hash >= L. The site drops an arrival whose hash is at
// least min(u_i, L) without changing any coordinator state. In the paper's
// zero-delay model u_i <= L always, so the bound never fires; over a
// pipelined transport, where replies lag, a lone site's L is the threshold
// its coordinator will have by then, so it sends exactly the zero-delay
// protocol's offers. A max-heap keeps the s smallest memo hashes: every
// offer pushes its hash (replacing the maximum once the heap is full), and
// pruning the memo at a new u_i pops every entry >= u_i. The heap therefore
// always holds exactly the s smallest hashes among the memo's keys; a key
// pruned and offered again, after u_i rose at a failover or a split, is
// counted once.
type InfiniteSite struct {
	id      int
	hasher  hashing.UnitHasher
	u       float64
	offered map[string]float64 // keys already sent whose hash is still < u
	naive   bool               // literal Algorithm 1: no duplicate suppression
	s       int                // the bound's rank; 0 for a site without the bound
	least   []float64          // max-heap of the s smallest hashes in offered
}

// NewInfiniteSite constructs the site with index id. All sites and the
// coordinator must share the same hash function, mirroring the paper's
// initialization step in which the coordinator distributes h.
func NewInfiniteSite(id int, hasher hashing.UnitHasher) *InfiniteSite {
	return &InfiniteSite{id: id, hasher: hasher, u: 1, offered: make(map[string]float64)}
}

// NewBoundedInfiniteSite constructs a site that also filters against the
// s-th smallest hash among the keys it has offered (see InfiniteSite). s must
// be the coordinator's sample size: a smaller s would drop keys the sample
// needs. Its coordinator's replies and final sample are those of
// NewInfiniteSite's; only the offers that coordinator would refuse anyway
// are never sent.
func NewBoundedInfiniteSite(id int, hasher hashing.UnitHasher, s int) *InfiniteSite {
	site := NewInfiniteSite(id, hasher)
	site.s = max(1, s)
	site.least = make([]float64, 0, site.s)
	return site
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

// SampleSize returns the bound's s, or 0 for a site without the bound. A
// site client announces it at hello, so that a coordinator of another sample
// size refuses the site before it drops a key that coordinator needs.
func (s *InfiniteSite) SampleSize() int { return s.s }

// bound returns L, the s-th smallest hash among the memo's keys, or 1 while
// the memo holds fewer than s keys or the site has no bound.
func (s *InfiniteSite) bound() float64 {
	if s.s == 0 || len(s.least) < s.s {
		return 1
	}
	return s.least[0]
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
// bound, then the duplicate memo.
func (s *InfiniteSite) offer(key string, h float64, out *netsim.Outbox) {
	if !s.naive {
		if h >= s.bound() {
			return
		}
		if _, already := s.offered[key]; already {
			return
		}
		s.offered[key] = h
		if s.s > 0 {
			s.pushLeast(h)
		}
	}
	out.ToCoordinator(netsim.Message{Kind: netsim.KindOffer, Key: key, Hash: h})
}

// pushLeast adds an offered key's hash to the heap of the s smallest. A full
// heap replaces its maximum, which h beats: offer dropped every h >= L.
func (s *InfiniteSite) pushLeast(h float64) {
	if len(s.least) == s.s {
		s.least[0] = h
		s.siftDown()
		return
	}
	s.least = append(s.least, h)
	for i := len(s.least) - 1; i > 0; {
		parent := (i - 1) / 2
		if s.least[parent] >= s.least[i] {
			break
		}
		s.least[parent], s.least[i] = s.least[i], s.least[parent]
		i = parent
	}
}

// siftDown restores the max-heap order below the root.
func (s *InfiniteSite) siftDown() {
	n := len(s.least)
	for i := 0; ; {
		big, left := i, 2*i+1
		if left < n && s.least[left] > s.least[big] {
			big = left
		}
		if right := left + 1; right < n && s.least[right] > s.least[big] {
			big = right
		}
		if big == i {
			return
		}
		s.least[i], s.least[big] = s.least[big], s.least[i]
		i = big
	}
}

var _ netsim.DigestSite = (*InfiniteSite)(nil)

// OnMessage implements netsim.SiteNode: the coordinator's reply refreshes
// the local threshold, and offered keys that can no longer beat it are
// forgotten, from the memo and from the bound's heap alike.
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
	// Every memo hash outside the heap is at least the heap's maximum, so
	// popping the maxima >= u leaves the s smallest of what the memo kept.
	for len(s.least) > 0 && s.least[0] >= s.u {
		last := len(s.least) - 1
		s.least[0] = s.least[last]
		s.least = s.least[:last]
		s.siftDown()
	}
}

// OnSlotEnd implements netsim.SiteNode. The infinite-window site has no
// time-driven behaviour.
func (s *InfiniteSite) OnSlotEnd(int64, *netsim.Outbox) {}

// Memory implements netsim.SiteNode: the threshold plus the duplicate memo
// and the bound's heap.
func (s *InfiniteSite) Memory() int { return 1 + len(s.offered) + len(s.least) }

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
