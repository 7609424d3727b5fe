package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/stream"
	"repro/internal/wire"
)

// lastArrivals returns the stream with every occurrence of the keys in last
// moved to its end, each position keeping its slot.
func lastArrivals(elements []stream.Element, last map[string]bool) []stream.Element {
	var head, tail []stream.Element
	for _, e := range elements {
		if last[e.Key] {
			tail = append(tail, e)
		} else {
			head = append(head, e)
		}
	}
	out := append(head, tail...)
	for i := range out {
		out[i].Slot = elements[i].Slot
	}
	return out
}

// TestBoundedSitesPerShardIdentity checks that sites which count their own
// offers (core.NewBoundedInfiniteSite) change which offers reach a shard but
// not what any shard ends with. For k pipelined sites over C shards, every
// shard's final sample equals the one it ends with when unbounded sites
// ingest the same arrivals, the merged sample is byte-identical to the
// centralized reference, and the bounded sites send strictly fewer offers.
// Each shard's s-th smallest key arrives last, so with one site the s-1 keys
// below it sit in that shard node's memo when it comes.
func TestBoundedSitesPerShardIdentity(t *testing.T) {
	const (
		s    = 16
		seed = 2024
	)
	hasher := hashing.NewMurmur2(seed)
	opts := wire.Options{BatchSize: 64, Window: 8}
	for _, k := range []int{1, 3} {
		for _, shards := range []int{2, 4} {
			name := fmt.Sprintf("k=%d shards=%d", k, shards)
			router := NewShardRouter(shards, hasher)
			elements := dataset.Uniform(30000, 6000, seed+uint64(10*k+shards)).Generate()
			perShard := make([]*core.Reference, shards)
			for i := range perShard {
				perShard[i] = core.NewReference(s, hasher)
			}
			for _, e := range elements {
				perShard[router.Shard(e.Key)].Observe(e.Key)
			}
			last := make(map[string]bool)
			for _, ref := range perShard {
				last[ref.SampleKeys()[s-1]] = true
			}
			elements = lastArrivals(elements, last)
			arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))
			plain := ingest(t, shards, k, s, hasher, arrivals, opts)
			bounded := ingestSites(t, shards, k, s, hasher, arrivals, opts, func(id int) netsim.SiteNode {
				return core.NewBoundedInfiniteSite(id, hasher, s)
			})
			if got, want := bounded.ShardSamples(), plain.ShardSamples(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: shard samples differ from the unbounded run's\n got: %v\nwant: %v", name, got, want)
			}
			oracle := core.NewReference(s, hasher)
			oracle.ObserveAll(stream.Keys(elements))
			sameJSON(t, name+": merged sample", bounded.MergedSample(s), oracle.Sample())
			plainOffers, _, _ := plain.Stats()
			boundedOffers, _, _ := bounded.Stats()
			t.Logf("%s: offers %d unbounded, %d bounded", name, plainOffers, boundedOffers)
			if boundedOffers >= plainOffers {
				t.Errorf("%s: bounded sites sent %d offers, unbounded %d; want strictly fewer", name, boundedOffers, plainOffers)
			}
		}
	}
}

// sharedBounds returns an ingestSites site constructor under which the
// per-shard sites of each of the k site ids share one core.Bound of rank s,
// as the sites of one dds.Client do.
func sharedBounds(k, s int, hasher hashing.UnitHasher) func(id int) netsim.SiteNode {
	bounds := make([]*core.Bound, k)
	for i := range bounds {
		bounds[i] = core.NewBound(s)
	}
	return func(id int) netsim.SiteNode { return core.NewSharedInfiniteSite(id, hasher, bounds[id]) }
}

// TestSharedBoundMatchesSequentialEngine checks that one client whose shard
// sites share a bound sends exactly the offers of the paper's zero-delay
// protocol for one site and one coordinator (netsim's sequential engine),
// over any number of shards and whatever the batch size and window. Each
// shard's threshold is at least the client's bound, since a shard holds
// only keys the client offered, so the site offers an arrival exactly when
// the engine's site does: its hash beats the s-th smallest offered hash and
// its key was never offered. The merged sample equals the engine's, which
// equals the centralized reference.
func TestSharedBoundMatchesSequentialEngine(t *testing.T) {
	const s = 16
	for seed := uint64(1); seed <= 3; seed++ {
		hasher := hashing.NewMurmur2(seed)
		elements := dataset.Uniform(30000, 6000, seed).Generate()
		arrivals := distribute.Apply(elements, distribute.NewRoundRobin(1))
		runner := netsim.Runner{Sites: []netsim.SiteNode{core.NewInfiniteSite(0, hasher)}, Coordinator: core.NewInfiniteCoordinator(s)}
		want, err := runner.RunSequential(arrivals)
		if err != nil {
			t.Fatal(err)
		}
		oracle := core.NewReference(s, hasher)
		oracle.ObserveAll(stream.Keys(elements))
		sameJSON(t, fmt.Sprintf("seed %d: engine sample", seed), want.FinalSample, oracle.Sample())
		t.Logf("seed %d: the engine sends %d offers", seed, want.UpMessages)
		for _, shards := range []int{1, 2, 4, 8} {
			for _, opts := range []wire.Options{{BatchSize: 1, Window: 1}, {BatchSize: 64, Window: 1}, {BatchSize: 64, Window: 8}} {
				name := fmt.Sprintf("seed %d shards=%d batch=%d window=%d", seed, shards, opts.BatchSize, opts.Window)
				srv := ingestSites(t, shards, 1, s, hasher, arrivals, opts, sharedBounds(1, s, hasher))
				if offers, _, _ := srv.Stats(); offers != want.UpMessages {
					t.Errorf("%s: the client sent %d offers, the engine %d", name, offers, want.UpMessages)
				}
				sameJSON(t, name+": merged sample", srv.MergedSample(s), want.FinalSample)
			}
		}
	}
}

// TestSharedBoundMatchesReference checks k clients, each with its own shared
// bound, against the centralized reference: the merged sample is
// byte-identical, and the clients send strictly fewer offers than the same
// clients with a bound per shard site.
func TestSharedBoundMatchesReference(t *testing.T) {
	const (
		k    = 3
		s    = 16
		seed = 2025
	)
	hasher := hashing.NewMurmur2(seed)
	opts := wire.Options{BatchSize: 64, Window: 8}
	for _, shards := range []int{2, 4, 8} {
		name := fmt.Sprintf("k=%d shards=%d", k, shards)
		elements := dataset.Uniform(30000, 6000, seed+uint64(shards)).Generate()
		arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))
		perShard := ingestSites(t, shards, k, s, hasher, arrivals, opts, func(id int) netsim.SiteNode {
			return core.NewBoundedInfiniteSite(id, hasher, s)
		})
		shared := ingestSites(t, shards, k, s, hasher, arrivals, opts, sharedBounds(k, s, hasher))
		oracle := core.NewReference(s, hasher)
		oracle.ObserveAll(stream.Keys(elements))
		sameJSON(t, name+": merged sample", shared.MergedSample(s), oracle.Sample())
		perShardOffers, _, _ := perShard.Stats()
		sharedOffers, _, _ := shared.Stats()
		t.Logf("%s: offers %d with a bound per shard site, %d with one per client", name, perShardOffers, sharedOffers)
		if sharedOffers >= perShardOffers {
			t.Errorf("%s: clients with shared bounds sent %d offers, with per-shard bounds %d; want strictly fewer", name, sharedOffers, perShardOffers)
		}
	}
}
