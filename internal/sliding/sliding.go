// Package sliding implements the paper's sliding-window extension
// (Chapter 4, Algorithms 3 and 4): continuous maintenance of a distinct
// random sample over the elements whose most recent arrival lies within the
// last w time slots, across k distributed sites and a coordinator.
//
// The sample size is s = 1, as in the paper ("for simplicity, we present the
// algorithm for the case s = 1; the extension to larger sample sizes is
// straightforward"). Each site keeps
//
//   - its local candidate sample (e_i, u_i, t_i): the element, its hash, and
//     the slot at which it expires, learned from the coordinator's replies;
//   - the set T_i of tuples that could still become the window minimum now
//     or in the future, stored in a treap-backed dominance structure
//     (internal/treap.WindowStore). Expected size is H_M = O(log M) where M
//     is the number of distinct elements the site currently has in the
//     window (Lemma 10).
//
// A site talks to the coordinator in two situations: a new arrival hashes
// below u_i, or the site's candidate sample expires (then it promotes the
// minimum of T_i and reports it). The coordinator keeps only the globally
// best candidate (e*, u*, t*) and answers every report with it.
//
// NewSite is that literal Algorithm 3 site. NewSharedSite builds a site that
// counts its own offers, as the paper's zero-delay site would learn them:
// nothing expires within a slot, so after offering an arrival of hash h the
// site's candidate is min(u_i, h) at once, and a reply whose hash is above a
// live candidate is stale (its element joins T_i, but does not become the
// candidate). In the zero-delay model it exchanges exactly NewSite's
// messages; over a pipelined transport, where replies lag, it stops
// reporting arrivals that an offer still in flight already beats. The sites
// one client opens to its C shards share one Candidate, so the client
// filters against one candidate and sends one protocol's offers, not C: when
// that candidate expires, the minimum over all of the client's T_j is
// promoted once, by the site whose store holds it. A shard then no longer
// hears every promotion of its range, its slot clock lags, and only the
// merged window sample, read from the shards' stores as of the current slot,
// is exact.
//
// Slot/expiry convention: an element arriving at slot a is part of the
// window at every slot t with t-w+1 <= a <= t, i.e. it is live through slot
// a+w-1; its expiry field is that last live slot.
package sliding

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/treap"
)

// Site is the per-site half of the sliding-window protocol (Algorithm 3).
type Site struct {
	id     int
	hasher hashing.UnitHasher
	window int64
	store  *treap.WindowStore

	// candidate is the local candidate sample (e_i, u_i, t_i): the site's
	// own, or the one it shares with its client's other sites.
	*candidate
	// adopt makes an offer the candidate at once, and a reply above a live
	// candidate stale (NewSharedSite).
	adopt bool
}

// candidate is a candidate sample (e_i, u_i, t_i) and the sites that filter
// against it (see Candidate).
type candidate struct {
	// mu guards everything below and the members' stores, against OnMessage
	// and OnSlotEnd running for several members at once. The arrival path
	// does not take it (see Candidate).
	mu sync.Mutex

	// hasSample is false before the first element and whenever the window
	// empties.
	sampleKey    string
	sampleHash   float64
	sampleExpiry int64
	hasSample    bool

	members []*Site
	// owner is the member that owes its coordinator the offer of the
	// candidate a slot-end promotion took from its store, until its own
	// OnSlotEnd sends it.
	owner *Site
}

// Candidate is the candidate sample that the sites one client opens to its
// shards share (NewSharedSite), with those sites, whose window stores T_j a
// slot-end promotion takes its minimum over. A client runs OnMessage and
// OnSlotEnd for several shards at once, on one goroutine per shard, so
// those take the candidate's lock and touch the members' stores only under
// it. The arrival path takes no lock: only one goroutine may run the
// members' arrivals, and never beside those calls. A reshard's repartition
// moves the members' stores, not the candidate.
type Candidate struct{ candidate }

// NewCandidate returns an empty candidate for NewSharedSite.
func NewCandidate() *Candidate { return new(Candidate) }

// NewSite constructs a sliding-window site with index id, the shared hash
// function, the window size in slots, and a seed for the treap's internal
// priorities. It follows Algorithm 3 to the letter: its candidate is its
// own, and it learns it from the coordinator's replies.
func NewSite(id int, hasher hashing.UnitHasher, window int64, seed uint64) *Site {
	return newSite(id, hasher, window, seed, new(candidate))
}

// NewSharedSite constructs a site that counts its own offers and filters
// against cand, which the sites one client opens to its other shards share,
// those of slots a reshard adds included (see the package doc). The client
// then sends the offers of one site talking to one coordinator. Only the
// merged window sample of its coordinators is exact; a shard's own sample
// may be an expired minimum behind a slot clock that no message advanced.
func NewSharedSite(id int, hasher hashing.UnitHasher, window int64, seed uint64, cand *Candidate) *Site {
	s := newSite(id, hasher, window, seed, &cand.candidate)
	s.adopt = true
	return s
}

// newSite builds a site over cand and makes it one of cand's members.
func newSite(id int, hasher hashing.UnitHasher, window int64, seed uint64, cand *candidate) *Site {
	if window < 1 {
		window = 1
	}
	s := &Site{
		id:        id,
		hasher:    hasher,
		window:    window,
		store:     treap.NewWindowStore(seed),
		candidate: cand,
	}
	cand.mu.Lock()
	cand.members = append(cand.members, s)
	cand.mu.Unlock()
	return s
}

// Leave takes the site out of its candidate's slot-end promotions. A client
// calls it when a reshard retires the site's shard slot, after the
// repartition has moved the site's store to the slots that own its keys.
func (s *Site) Leave() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.members = slices.DeleteFunc(s.members, func(m *Site) bool { return m == s })
}

// ID implements netsim.SiteNode.
func (s *Site) ID() int { return s.id }

// Window returns the window size in slots.
func (s *Site) Window() int64 { return s.window }

// Threshold returns the site's current view u_i of the sample hash
// (1 when the site has no sample). Used by tests and invariant checks.
func (s *Site) Threshold() float64 {
	if !s.hasSample {
		return 1
	}
	return s.sampleHash
}

// expiryFor returns the last slot at which an element arriving at slot is
// still inside the window.
func (s *Site) expiryFor(slot int64) int64 { return slot + s.window - 1 }

// Hasher implements netsim.DigestSite: the hash function the site filters
// with.
func (s *Site) Hasher() hashing.UnitHasher { return s.hasher }

// OnArrival implements netsim.SiteNode (Algorithm 3, lines 3-15).
func (s *Site) OnArrival(key string, slot int64, out *netsim.Outbox) {
	s.arrive(key, s.hasher.Unit(key), slot, out)
}

// OnDigest implements netsim.DigestSite: OnArrival for a key whose digest
// under the site's hasher is d.
func (s *Site) OnDigest(key string, d uint64, slot int64, out *netsim.Outbox) {
	s.arrive(key, hashing.ToUnit(d), slot, out)
}

// arrive is Algorithm 3's arrival step for key, whose unit hash is h.
func (s *Site) arrive(key string, h float64, slot int64, out *netsim.Outbox) {
	// Drop tuples that have fallen out of the window before doing anything
	// else (Algorithm 3 line 10).
	s.store.ExpireBefore(slot)

	expiry := s.expiryFor(slot)
	// Insert or refresh the tuple; dominated tuples are pruned inside.
	s.store.Observe(key, h, expiry)

	if !s.hasSample || h < s.sampleHash {
		// The element may change the global sample: report it.
		if s.adopt {
			s.sampleKey, s.sampleHash, s.sampleExpiry, s.hasSample = key, h, expiry, true
		}
		out.ToCoordinator(netsim.Message{Kind: netsim.KindWindowOffer, Key: key, Hash: h, Expiry: expiry})
	}
}

var _ netsim.DigestSite = (*Site)(nil)

// OnMessage implements netsim.SiteNode (Algorithm 3, lines 16-20): the
// coordinator's reply becomes the site's candidate sample and joins T_i so
// that it can be promoted again later. A site that counts its own offers
// keeps a live candidate of lower hash: the reply is stale.
func (s *Site) OnMessage(msg netsim.Message, slot int64, _ *netsim.Outbox) {
	if msg.Kind != netsim.KindWindowSample {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.adopt || !s.live(slot) || msg.Hash <= s.sampleHash {
		s.sampleKey = msg.Key
		s.sampleHash = msg.Hash
		s.sampleExpiry = msg.Expiry
		s.hasSample = true
		s.owner = nil // a promotion not yet sent is beaten
	}
	s.store.Observe(msg.Key, msg.Hash, msg.Expiry)
	s.store.ExpireBefore(slot)
}

// live reports whether the candidate is still inside the window at slot.
func (c *candidate) live(slot int64) bool { return c.hasSample && c.sampleExpiry >= slot }

// OnSlotEnd implements netsim.SiteNode (Algorithm 3, lines 21-25): when the
// site's candidate sample has expired, promote the minimum of T_i and report
// it to the coordinator. For sites that share a candidate, the first
// member's call promotes the minimum over all the members' stores, and the
// member that holds it reports it.
func (s *Site) OnSlotEnd(slot int64, out *netsim.Outbox) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store.ExpireBefore(slot)
	if !s.live(slot) {
		s.promote(slot)
	}
	if s.owner == s {
		s.owner = nil
		out.ToCoordinator(netsim.Message{Kind: netsim.KindWindowOffer, Key: s.sampleKey, Hash: s.sampleHash, Expiry: s.sampleExpiry})
	}
}

// promote makes the minimum live tuple over the members' stores the
// candidate, owed to its coordinator by the member that holds it. With
// nothing live anywhere it falls back to the initial state, so that the next
// arrival is reported unconditionally. Callers hold mu.
func (c *candidate) promote(slot int64) {
	c.sampleKey, c.sampleHash, c.sampleExpiry, c.hasSample = "", 0, 0, false
	c.owner = nil
	for _, m := range c.members {
		m.store.ExpireBefore(slot)
		min, ok := m.store.Min()
		if !ok || c.hasSample && min.Hash >= c.sampleHash {
			continue
		}
		c.sampleKey, c.sampleHash, c.sampleExpiry, c.hasSample = min.Key, min.Hash, min.Expiry, true
		c.owner = m
	}
}

// Memory implements netsim.SiteNode: the number of tuples in T_i, the
// quantity plotted in Figures 5.7 and 5.9.
func (s *Site) Memory() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Len()
}

// Snapshot implements core.Snapshotter: the site's candidate sample
// (e_i, u_i, t_i) plus its store T_i as one sliding-kind State. Site
// snapshots are what lets a reshard repartition site-side window state:
// tuples for keys that moved to another shard migrate into that shard's
// site instance instead of being stranded (see cluster.SiteClient). A site
// that shares its candidate snapshots its store alone: the candidate is the
// client's, and stays where it is.
func (s *Site) Snapshot() core.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	var cand *netsim.SampleEntry
	if s.hasSample && !s.adopt {
		cand = &netsim.SampleEntry{Key: s.sampleKey, Hash: s.sampleHash, Expiry: s.sampleExpiry}
	}
	return storeSnapshot(s.store, cand, 0)
}

// Restore implements core.Snapshotter: replace the site's store and
// candidate with the snapshot's. A snapshot without a candidate leaves the
// site sample-less, so its next arrival is reported unconditionally — the
// protocol's initial state, always safe. A site that shares its candidate
// restores its store alone.
func (s *Site) Restore(st core.State) error {
	if err := core.ValidateState(st, core.StateSliding, 1); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := restoreStore(s.store, st); err != nil {
		return err
	}
	if s.adopt {
		return nil
	}
	if cand := st.Sections[0].Candidate; cand != nil {
		s.sampleKey, s.sampleHash, s.sampleExpiry, s.hasSample = cand.Key, cand.Hash, cand.Expiry, true
	} else {
		s.sampleKey, s.sampleHash, s.sampleExpiry, s.hasSample = "", 0, 0, false
	}
	return nil
}

var _ core.Snapshotter = (*Site)(nil)

// StoreHeight exposes the treap height (diagnostics and the treap-bound
// extension experiment).
func (s *Site) StoreHeight() int { return s.store.Height() }

// Coordinator is the coordinator half of the sliding-window protocol
// (Algorithm 4), with one strengthening over the paper's pseudocode.
//
// Algorithm 4 keeps only the single best candidate (e*, u*, t*); when that
// candidate expires, the coordinator adopts whatever the next reporting site
// offers — even though a strictly better, still-live element may have been
// offered to it earlier and then discarded, and the site holding that
// element stays silent because its own view has not expired. The sample at
// the coordinator can then differ from the true window minimum for up to a
// window length. To keep the sample exact at every slot boundary, this
// coordinator retains the non-dominated set of all offers it has received
// (the same structure each site keeps, per Babcock et al. priority
// sampling): expected size O(log |D^w|), zero additional messages, and when
// the current minimum expires the next-best previously offered element takes
// over automatically. The current sample is always the minimum-hash live
// tuple of this store.
type Coordinator struct {
	offers   *treap.WindowStore
	lastSlot int64
}

// NewCoordinator constructs an empty sliding-window coordinator.
func NewCoordinator() *Coordinator {
	return &Coordinator{offers: treap.NewWindowStore(0x5eed)}
}

// OnMessage implements netsim.CoordinatorNode (Algorithm 4, lines 2-7).
func (c *Coordinator) OnMessage(msg netsim.Message, slot int64, out *netsim.Outbox) {
	if msg.Kind != netsim.KindWindowOffer {
		return
	}
	if slot > c.lastSlot {
		c.lastSlot = slot
	}
	c.offers.ExpireBefore(slot)
	c.offers.Observe(msg.Key, msg.Hash, msg.Expiry)
	if min, ok := c.offers.Min(); ok {
		out.ToSite(msg.From, netsim.Message{
			Kind: netsim.KindWindowSample, Key: min.Key, Hash: min.Hash, Expiry: min.Expiry,
		})
	}
}

// OnSlotEnd implements netsim.CoordinatorNode: drop offers that fell out of
// the window so that queries between slots see only live candidates.
func (c *Coordinator) OnSlotEnd(slot int64, _ *netsim.Outbox) {
	if slot > c.lastSlot {
		c.lastSlot = slot
	}
	c.offers.ExpireBefore(slot)
}

// Sample implements netsim.CoordinatorNode: the current window sample (one
// entry, or none when no live element has been offered).
func (c *Coordinator) Sample() []netsim.SampleEntry {
	min, ok := c.offers.Min()
	if !ok {
		return nil
	}
	return []netsim.SampleEntry{{Key: min.Key, Hash: min.Hash, Expiry: min.Expiry}}
}

// Current returns the coordinator's candidate and whether one exists,
// without allocating. Used by tests that check the sample every slot.
func (c *Coordinator) Current() (key string, hash float64, expiry int64, ok bool) {
	min, ok := c.offers.Min()
	if !ok {
		return "", 0, 0, false
	}
	return min.Key, min.Hash, min.Expiry, true
}

// StoreLen exposes the size of the coordinator's offer store (diagnostics
// and the memory extension experiment).
func (c *Coordinator) StoreLen() int { return c.offers.Len() }

// Offer implements core.Sampler: advance the slot clock to o.Slot, expire
// stale tuples, and observe the element with its expiry. It reports whether
// the window sample (the minimum-hash live tuple) changed.
func (c *Coordinator) Offer(o core.Offer) bool {
	if o.Slot > c.lastSlot {
		c.lastSlot = o.Slot
	}
	c.offers.ExpireBefore(c.lastSlot)
	before, hadBefore := c.offers.Min()
	c.offers.Observe(o.Key, o.Hash, o.Expiry)
	after, hadAfter := c.offers.Min()
	return hadBefore != hadAfter || before != after
}

// Threshold implements core.Sampler: the current sample's hash — an element
// hashing at or above it cannot become the window minimum now (though,
// unlike the infinite window, it may later, once the minimum expires).
// 1 while no live candidate exists.
func (c *Coordinator) Threshold() float64 {
	if min, ok := c.offers.Min(); ok {
		return min.Hash
	}
	return 1
}

// storeSnapshot captures a window store plus an optional explicit candidate
// as one sliding-kind State section — shared by the coordinator and Site.
func storeSnapshot(store *treap.WindowStore, candidate *netsim.SampleEntry, slot int64) core.State {
	tuples := store.Tuples()
	entries := make([]netsim.SampleEntry, len(tuples))
	for i, tu := range tuples {
		entries[i] = netsim.SampleEntry{Key: tu.Key, Hash: tu.Hash, Expiry: tu.Expiry}
	}
	return core.State{
		Version:    core.StateVersion,
		Kind:       core.StateSliding,
		SampleSize: 1,
		Slot:       slot,
		Sections:   []core.SectionState{{Candidate: candidate, Entries: entries}},
	}
}

// restoreStore rebuilds a window store from a sliding-kind State's section,
// re-running dominance pruning (so a merged snapshot restores to exactly the
// non-dominated set of the union) and expiring everything dead at the
// snapshot's slot clock.
func restoreStore(store *treap.WindowStore, st core.State) error {
	if len(st.Sections) != 1 {
		return fmt.Errorf("sliding: snapshot has %d sections, want 1", len(st.Sections))
	}
	sec := st.Sections[0]
	tuples := make([]treap.Tuple, 0, len(sec.Entries)+1)
	for _, e := range sec.Entries {
		tuples = append(tuples, treap.Tuple{Key: e.Key, Hash: e.Hash, Expiry: e.Expiry})
	}
	if sec.Candidate != nil {
		tuples = append(tuples, treap.Tuple{Key: sec.Candidate.Key, Hash: sec.Candidate.Hash, Expiry: sec.Candidate.Expiry})
	}
	store.RestoreTuples(tuples)
	store.ExpireBefore(st.Slot)
	return nil
}

// Snapshot implements core.Sampler: the coordinator's whole protocol state —
// the non-dominated offer store, the current candidate (e*, u*, t*), and the
// slot clock — as one sliding-kind State. This is what finally makes the
// sliding-window coordinator restorable: its candidate store never fit in a
// flat sample frame.
func (c *Coordinator) Snapshot() core.State {
	var cand *netsim.SampleEntry
	if min, ok := c.offers.Min(); ok {
		cand = &netsim.SampleEntry{Key: min.Key, Hash: min.Hash, Expiry: min.Expiry}
	}
	st := storeSnapshot(c.offers, cand, c.lastSlot)
	// The candidate is the store minimum — do not duplicate it in Entries.
	// (storeSnapshot keeps both; for the coordinator the candidate is
	// derived, so it rides along purely as self-description.)
	return st
}

// Restore implements core.Sampler.
func (c *Coordinator) Restore(st core.State) error {
	if err := core.ValidateState(st, core.StateSliding, 1); err != nil {
		return err
	}
	if err := restoreStore(c.offers, st); err != nil {
		return err
	}
	c.lastSlot = st.Slot
	return nil
}

var _ core.Sampler = (*Coordinator)(nil)

// System bundles the sliding-window sites and coordinator.
type System struct {
	Sites       []netsim.SiteNode
	Coordinator netsim.CoordinatorNode
}

// Runner returns a netsim.Runner over the system's nodes.
func (sys *System) Runner(timelineEvery int, memoryEvery int64) *netsim.Runner {
	return &netsim.Runner{
		Sites:         sys.Sites,
		Coordinator:   sys.Coordinator,
		TimelineEvery: timelineEvery,
		MemoryEvery:   memoryEvery,
	}
}

// NewSystem constructs a complete sliding-window sampling system: k sites
// over the given window size, sharing hasher. seed derives the per-site
// treap seeds.
func NewSystem(k int, window int64, hasher hashing.UnitHasher, seed uint64) *System {
	seeds := hashing.SeedSequence(seed, k)
	sites := make([]netsim.SiteNode, k)
	for i := range sites {
		sites[i] = NewSite(i, hasher, window, seeds[i])
	}
	return &System{Sites: sites, Coordinator: NewCoordinator()}
}
