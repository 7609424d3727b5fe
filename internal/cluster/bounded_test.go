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
