package cluster

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/sliding"
	"repro/internal/stream"
	"repro/internal/wire"
)

// sharedCandidates returns an ingestWindow site constructor under which the
// shard sites of each of the k site ids share one sliding.Candidate, as the
// sites of one dds.Client do.
func sharedCandidates(k int, hasher hashing.UnitHasher, window int64) func(id, shard int) netsim.SiteNode {
	cands := make([]*sliding.Candidate, k)
	for i := range cands {
		cands[i] = sliding.NewCandidate()
	}
	return func(id, shard int) netsim.SiteNode {
		return sliding.NewSharedSite(id, hasher, window, uint64(id*100+shard)+1, cands[id])
	}
}

// ingestWindow drives k sliding-window clients over a fresh cluster of
// shards in lockstep: each slot's arrivals in stream order, then every
// client's EndSlot, for every slot from the first arrival's to the last's.
// After each boundary it calls atBoundary, when set, with the shards'
// groups. It returns the cluster, after every client has closed; the
// cluster closes at the test's end.
func ingestWindow(t *testing.T, shards, k int, hasher hashing.UnitHasher, arrivals []stream.Arrival, opts wire.Options,
	newSite func(id, shard int) netsim.SiteNode, atBoundary func(slot int64, groups [][]string)) *Server {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", shards, func(int) netsim.CoordinatorNode { return sliding.NewCoordinator() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	groups := addrGroups(srv.Addrs())
	clients := make([]*SiteClient, k)
	for id := range clients {
		clients[id], err = DialGroups(groups, NewShardRouter(shards, hasher), func(shard int) netsim.SiteNode {
			return newSite(id, shard)
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
	}
	idx := 0
	for slot := arrivals[0].Slot; slot <= arrivals[len(arrivals)-1].Slot; slot++ {
		for ; idx < len(arrivals) && arrivals[idx].Slot == slot; idx++ {
			a := arrivals[idx]
			if err := clients[a.Site].Observe(a.Key, slot); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range clients {
			if err := c.EndSlot(slot); err != nil {
				t.Fatal(err)
			}
		}
		if atBoundary != nil {
			atBoundary(slot, groups)
		}
	}
	for _, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// TestSharedCandidateMatchesSequentialEngine checks that one client whose
// shard sites share a window candidate sends exactly the offers of the
// paper's zero-delay protocol for one literal site and one coordinator
// (netsim's sequential engine), over any number of shards and whatever the
// batch size and window. Only this client offers to the shards, so a
// shard's reply never beats the client's live candidate, which is the
// minimum live hash the client has offered, as the engine's site's is; and
// a promotion takes the minimum over all the client's stores, as the
// engine's site takes it over its one store. The window sample, read from
// the shards' stores as of the last slot, equals the engine's.
func TestSharedCandidateMatchesSequentialEngine(t *testing.T) {
	const window = 20
	for seed := uint64(1); seed <= 3; seed++ {
		hasher := hashing.NewMurmur2(seed)
		elements := stream.Reslot(dataset.Uniform(20000, 4000, seed).Generate(), 50)
		arrivals := distribute.Apply(elements, distribute.NewRoundRobin(1))
		want, err := sliding.NewSystem(1, window, hasher, seed).Runner(0, 0).RunSequential(arrivals)
		if err != nil {
			t.Fatal(err)
		}
		last := arrivals[len(arrivals)-1].Slot
		t.Logf("seed %d: the engine sends %d offers", seed, want.UpMessages)
		for _, shards := range []int{1, 2, 4, 8} {
			for _, opts := range []wire.Options{{BatchSize: 1, Window: 1}, {BatchSize: 64, Window: 1}, {BatchSize: 64, Window: 8}} {
				name := fmt.Sprintf("seed %d shards=%d batch=%d window=%d", seed, shards, opts.BatchSize, opts.Window)
				srv := ingestWindow(t, shards, 1, hasher, arrivals, opts, sharedCandidates(1, hasher, window), nil)
				if offers, _, _ := srv.Stats(); offers != want.UpMessages {
					t.Errorf("%s: the client sent %d offers, the engine %d", name, offers, want.UpMessages)
				}
				got, err := QueryWindowGroups(addrGroups(srv.Addrs()), last, wire.CodecBinary)
				if err != nil {
					t.Fatal(err)
				}
				sameJSON(t, name+": window sample", got, want.FinalSample)
			}
		}
	}
}

// TestSharedCandidateMatchesWindowMinimum checks k clients, each with its
// own shared candidate, against the brute-force window minimum at every
// slot boundary: the window read as of the boundary slot is the minimum-hash
// key among the keys whose last arrival is inside the window, with an
// expiry that is live and never past that arrival's. The clients send
// strictly fewer offers than the same clients with a literal Algorithm 3
// site per shard, or with a site per shard that counts its own offers.
func TestSharedCandidateMatchesWindowMinimum(t *testing.T) {
	const (
		k      = 3
		window = 30
		seed   = 2026
	)
	hasher := hashing.NewMurmur2(seed)
	opts := wire.Options{BatchSize: 64, Window: 8}
	for _, shards := range []int{2, 4} {
		name := fmt.Sprintf("k=%d shards=%d", k, shards)
		elements := stream.Reslot(dataset.Uniform(12000, 1500, seed+uint64(shards)).Generate(), 40)
		arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))
		stream.SortArrivals(arrivals)
		lastArrival := make(map[string]int64)
		idx := 0
		checked := 0
		shared := ingestWindow(t, shards, k, hasher, arrivals, opts, sharedCandidates(k, hasher, window), func(slot int64, groups [][]string) {
			for ; idx < len(arrivals) && arrivals[idx].Slot <= slot; idx++ {
				lastArrival[arrivals[idx].Key] = arrivals[idx].Slot
			}
			var want netsim.SampleEntry
			for key, at := range lastArrival {
				if at <= slot-window {
					continue
				}
				if h := hasher.Unit(key); want.Key == "" || h < want.Hash {
					want = netsim.SampleEntry{Key: key, Hash: h, Expiry: at + window - 1}
				}
			}
			got, err := QueryWindowGroups(groups, slot, wire.CodecBinary)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0].Key != want.Key || got[0].Hash != want.Hash {
				t.Fatalf("%s slot %d: window sample %+v, want %+v", name, slot, got, want)
			}
			if got[0].Expiry < slot || got[0].Expiry > want.Expiry {
				t.Fatalf("%s slot %d: window sample expiry %d outside [%d, %d]", name, slot, got[0].Expiry, slot, want.Expiry)
			}
			checked++
		})
		literal := ingestWindow(t, shards, k, hasher, arrivals, opts, func(id, shard int) netsim.SiteNode {
			return sliding.NewSite(id, hasher, window, uint64(id*100+shard)+1)
		}, nil)
		perShard := ingestWindow(t, shards, k, hasher, arrivals, opts, func(id, shard int) netsim.SiteNode {
			return sliding.NewSharedSite(id, hasher, window, uint64(id*100+shard)+1, sliding.NewCandidate())
		}, nil)
		sharedOffers, _, _ := shared.Stats()
		literalOffers, _, _ := literal.Stats()
		perShardOffers, _, _ := perShard.Stats()
		t.Logf("%s: %d boundaries checked; offers %d with literal sites per shard, %d with adopting sites per shard, %d with one candidate per client",
			name, checked, literalOffers, perShardOffers, sharedOffers)
		if sharedOffers >= perShardOffers || sharedOffers >= literalOffers {
			t.Errorf("%s: clients with shared candidates sent %d offers, with per-shard sites %d and %d; want strictly fewer",
				name, sharedOffers, literalOffers, perShardOffers)
		}
	}
}

// addrGroups returns one one-member group per address.
func addrGroups(addrs []string) [][]string {
	groups := make([][]string, len(addrs))
	for i, addr := range addrs {
		groups[i] = []string{addr}
	}
	return groups
}
