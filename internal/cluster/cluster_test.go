package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/sliding"
	"repro/internal/stream"
	"repro/internal/wire"
)

// ingest replays the stream through k concurrent cluster site clients and
// returns the running server.
func ingest(t *testing.T, shards, k, s int, hasher hashing.UnitHasher, arrivals []stream.Arrival, opts wire.Options) *Server {
	t.Helper()
	return ingestSites(t, shards, k, s, hasher, arrivals, opts, func(id int) netsim.SiteNode {
		return core.NewInfiniteSite(id, hasher)
	})
}

// ingestSites is ingest with the per-shard site nodes of site id built by
// newSite.
func ingestSites(t *testing.T, shards, k, s int, hasher hashing.UnitHasher, arrivals []stream.Arrival, opts wire.Options, newSite func(id int) netsim.SiteNode) *Server {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", shards, func(int) netsim.CoordinatorNode {
		return core.NewInfiniteCoordinator(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	router := NewShardRouter(shards, hasher)
	perSite := make([][]stream.Arrival, k)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}
	var wg sync.WaitGroup
	errs := make(chan error, k)
	for site := 0; site < k; site++ {
		id := site
		client, err := DialSites(srv.Addrs(), router, func(int) netsim.SiteNode { return newSite(id) }, opts)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(client *SiteClient, arrivals []stream.Arrival) {
			defer wg.Done()
			for _, a := range arrivals {
				if err := client.Observe(a.Key, a.Slot); err != nil {
					errs <- err
					return
				}
			}
			errs <- client.Close()
		}(client, perSite[site])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// TestMergedSampleMatchesReference is the subsystem's core exactness
// guarantee: for C in {1, 2, 4, 8}, the union of per-shard bottom-s samples,
// re-truncated to bottom-s, is byte-identical to the centralized reference
// bottom-s sketch over the same stream.
func TestMergedSampleMatchesReference(t *testing.T) {
	const (
		k    = 3
		s    = 24
		seed = 42
	)
	hasher := hashing.NewMurmur2(seed)
	elements := dataset.Uniform(6000, 1500, seed).Generate()
	arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))

	oracle := core.NewReference(s, hasher)
	oracle.ObserveAll(stream.Keys(elements))
	want, err := json.Marshal(oracle.Sample())
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 4, 8} {
		for _, opts := range []wire.Options{
			{Codec: wire.CodecBinary},
			{Codec: wire.CodecBinary, BatchSize: 16},
			// Pipelined ingest: batches stream with a credit window and the
			// shard fan-out on Flush/Close runs concurrently; the merged
			// sample must stay byte-identical to the reference.
			{Codec: wire.CodecBinary, BatchSize: 16, Window: 4},
			{Codec: wire.CodecBinary, BatchSize: 8, Window: 2},
		} {
			srv := ingest(t, shards, k, s, hasher, arrivals, opts)
			merged := srv.MergedSample(s)
			got, err := json.Marshal(merged)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("shards=%d codec=%s batch=%d window=%d: merged sample differs from reference\n got: %s\nwant: %s",
					shards, opts.Codec, opts.BatchSize, opts.Window, got, want)
			}
			// The remote merged query returns the identical sample.
			queried, err := Query(srv.Addrs(), s, opts.Codec)
			if err != nil {
				t.Fatal(err)
			}
			got, err = json.Marshal(queried)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("shards=%d codec=%s: queried merged sample differs from reference", shards, opts.Codec)
			}
		}
	}
}

// TestMergedThresholdAndEstimate checks that the merged sample feeds the
// KMV estimator exactly as a single coordinator's sample would.
func TestMergedThresholdAndEstimate(t *testing.T) {
	const (
		k      = 4
		s      = 64
		shards = 4
		seed   = 7
	)
	hasher := hashing.NewMurmur2(seed)
	elements := dataset.Uniform(12000, 4000, seed).Generate()
	arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))
	srv := ingest(t, shards, k, s, hasher, arrivals, wire.Options{Codec: wire.CodecBinary, BatchSize: 32})

	oracle := core.NewReference(s, hasher)
	oracle.ObserveAll(stream.Keys(elements))
	merged := srv.MergedSample(s)
	if got, want := MergedThreshold(merged, s), oracle.Threshold(); got != want {
		t.Fatalf("merged threshold %v, want reference threshold %v", got, want)
	}
	est, err := DistinctCount(s, srv.ShardSamples()...)
	if err != nil {
		t.Fatal(err)
	}
	d := float64(oracle.Distinct())
	if est.Low > d || est.High < d {
		t.Fatalf("true distinct count %v outside estimate interval [%v, %v]", d, est.Low, est.High)
	}
	if math.Abs(est.Estimate-d)/d > 0.5 {
		t.Fatalf("estimate %v too far from true %v", est.Estimate, d)
	}
}

// TestShardRouterPartition checks that the router is a deterministic total
// partition and spreads a key population roughly evenly.
func TestShardRouterPartition(t *testing.T) {
	hasher := hashing.NewMurmur2(99)
	const shards = 8
	r := NewShardRouter(shards, hasher)
	if r.Shards() != shards {
		t.Fatalf("Shards() = %d", r.Shards())
	}
	counts := make([]int, shards)
	keys := dataset.AllDistinct(20000, 3).Generate()
	for _, e := range keys {
		c := r.Shard(e.Key)
		if c < 0 || c >= shards {
			t.Fatalf("shard %d out of range for key %q", c, e.Key)
		}
		if again := r.Shard(e.Key); again != c {
			t.Fatalf("router not deterministic for key %q", e.Key)
		}
		counts[c]++
	}
	expected := float64(len(keys)) / shards
	for c, n := range counts {
		if math.Abs(float64(n)-expected)/expected > 0.2 {
			t.Fatalf("shard %d holds %d of %d keys; want within 20%% of %.0f", c, n, len(keys), expected)
		}
	}
	// A one-shard router maps everything to shard 0, and invalid counts
	// clamp to one shard.
	if NewShardRouter(0, hasher).Shards() != 1 {
		t.Fatal("shard count below 1 should clamp to 1")
	}
}

// TestMergeSmallCases exercises Merge/MergedThreshold edge cases directly.
func TestMergeSmallCases(t *testing.T) {
	a := []netsim.SampleEntry{{Key: "a", Hash: 0.1}, {Key: "c", Hash: 0.5}}
	b := []netsim.SampleEntry{{Key: "b", Hash: 0.2}, {Key: "a", Hash: 0.1}}
	merged := Merge(3, a, b)
	wantKeys := []string{"a", "b", "c"}
	if len(merged) != 3 {
		t.Fatalf("merged %d entries, want 3", len(merged))
	}
	for i, e := range merged {
		if e.Key != wantKeys[i] {
			t.Fatalf("merged[%d] = %q, want %q", i, e.Key, wantKeys[i])
		}
	}
	if got := MergedThreshold(merged, 3); got != 0.5 {
		t.Fatalf("threshold %v, want 0.5 (full sample)", got)
	}
	if got := MergedThreshold(merged, 4); got != 1 {
		t.Fatalf("threshold %v, want 1 (undersized sample)", got)
	}
	// sampleSize 2 truncates to the two smallest hashes.
	if truncated := Merge(2, a, b); len(truncated) != 2 || truncated[1].Key != "b" {
		t.Fatalf("truncated merge wrong: %+v", truncated)
	}
	// sampleSize <= 0 keeps the whole union.
	if all := Merge(0, a, b); len(all) != 3 {
		t.Fatalf("unlimited merge kept %d entries, want 3", len(all))
	}
	if _, err := DistinctCount(2); err == nil {
		t.Fatal("DistinctCount with no shards should fail")
	}
}

// TestMergeEdgeCases covers the merge paths replication leans on: empty
// shard samples (a cold replica, an idle shard), duplicate entries across
// shards (replicated state: same key, same hash), distinct keys colliding on
// a hash, and a sample size exceeding the total distinct population.
func TestMergeEdgeCases(t *testing.T) {
	// Empty inputs in every position, including all-empty.
	if got := Merge(4); got != nil {
		t.Fatalf("merge of nothing = %+v, want nil", got)
	}
	if got := Merge(4, nil, nil); len(got) != 0 {
		t.Fatalf("merge of empty shards = %+v, want empty", got)
	}
	a := []netsim.SampleEntry{{Key: "a", Hash: 0.1}, {Key: "b", Hash: 0.3}}
	if got := Merge(4, nil, a, nil); len(got) != 2 || got[0].Key != "a" {
		t.Fatalf("merge with empty shards interleaved = %+v", got)
	}
	if got := MergedThreshold(nil, 4); got != 1 {
		t.Fatalf("threshold of an empty merge = %v, want 1", got)
	}

	// All-duplicate entries across shards (what replicated samples look
	// like): the union dedupes by key, so R copies of one shard's sample
	// merge to the sample itself.
	if got := Merge(4, a, a, a); len(got) != 2 {
		t.Fatalf("merging 3 replicas of one sample kept %d entries, want 2", len(got))
	}

	// Distinct keys with identical hashes (hash collision across shards):
	// both survive, deterministically ordered by key.
	coll := Merge(4,
		[]netsim.SampleEntry{{Key: "x", Hash: 0.5}},
		[]netsim.SampleEntry{{Key: "w", Hash: 0.5}},
	)
	if len(coll) != 2 || coll[0].Key != "w" || coll[1].Key != "x" {
		t.Fatalf("hash-collision merge = %+v, want w then x", coll)
	}

	// Sample size larger than the total distinct population: the merge holds
	// the whole population, and the threshold stays 1 (the sample *is* the
	// population, so estimates are exact).
	small := Merge(100, a, []netsim.SampleEntry{{Key: "c", Hash: 0.2}})
	if len(small) != 3 {
		t.Fatalf("undersized population merge = %+v", small)
	}
	if got := MergedThreshold(small, 100); got != 1 {
		t.Fatalf("undersized population threshold = %v, want 1", got)
	}
	est, err := DistinctCount(100, a, []netsim.SampleEntry{{Key: "c", Hash: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if est.Estimate != 3 {
		t.Fatalf("undersized population estimate = %v, want exactly 3", est.Estimate)
	}
}

// TestSlidingClusterWindowMinimum shards the sliding-window protocol: each
// shard maintains the window minimum of its key slice; the merged sample
// (sampleSize 1) must equal the global window minimum.
func TestSlidingClusterWindowMinimum(t *testing.T) {
	const (
		k      = 3
		shards = 4
		window = 40
		seed   = 23
	)
	hasher := hashing.NewMurmur2(seed)
	elements := stream.Reslot(dataset.Uniform(2500, 500, seed).Generate(), 5)
	arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))
	stream.SortArrivals(arrivals)
	maxSlot := arrivals[len(arrivals)-1].Slot

	srv, err := Listen("127.0.0.1:0", shards, func(int) netsim.CoordinatorNode {
		return sliding.NewCoordinator()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	router := NewShardRouter(shards, hasher)
	clients := make([]*SiteClient, k)
	for site := 0; site < k; site++ {
		id := site
		clients[site], err = DialSites(srv.Addrs(), router, func(shard int) netsim.SiteNode {
			return sliding.NewSite(id, hasher, window, uint64(id*shards+shard)+1)
		}, wire.Options{Codec: wire.CodecBinary, BatchSize: 8, Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer clients[site].Close()
	}

	idx := 0
	for slot := arrivals[0].Slot; slot <= maxSlot; slot++ {
		for idx < len(arrivals) && arrivals[idx].Slot == slot {
			a := arrivals[idx]
			idx++
			if err := clients[a.Site].Observe(a.Key, slot); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range clients {
			if err := c.EndSlot(slot); err != nil {
				t.Fatal(err)
			}
		}
	}

	merged, err := Query(srv.Addrs(), 1, wire.CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 1 {
		t.Fatalf("merged window sample has %d entries, want 1", len(merged))
	}
	live := stream.WindowDistinct(arrivals, maxSlot, window)
	bestKey, bestHash := "", 2.0
	for key := range live {
		if u := hasher.Unit(key); u < bestHash {
			bestKey, bestHash = key, u
		}
	}
	if merged[0].Key != bestKey {
		t.Fatalf("merged window sample %q, want global window minimum %q", merged[0].Key, bestKey)
	}
}

// TestRunIngestBench smoke-tests the benchmark runner used by cmd/ddsbench
// (it self-checks the merged sample against the reference internally).
func TestRunIngestBench(t *testing.T) {
	cfg := DefaultBenchConfig()
	cfg.Shards = 2
	cfg.Elements = 4000
	cfg.Distinct = 1000
	cfg.Codec = wire.CodecBinary
	cfg.Batch = 32
	res, err := RunIngestBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsPerSec <= 0 || res.MergedSampleLen != cfg.SampleSize {
		t.Fatalf("implausible bench result: %+v", res)
	}
	if len(res.PerShardOffers) != 2 || len(res.PerShardSampleLen) != 2 {
		t.Fatalf("missing per-shard series: %+v", res)
	}
}

// TestRunIngestBenchPipelinedFlood covers the configuration behind the
// BENCH_cluster.json pipeline section: flood-mode sites (one offer per
// element on the wire) with pipelined ingest. The runner's internal
// reference cross-check proves that redundant flooded offers and windowed
// streaming leave the merged sample byte-identical to the oracle; here we
// additionally check the offer accounting.
func TestRunIngestBenchPipelinedFlood(t *testing.T) {
	cfg := DefaultBenchConfig()
	cfg.Shards = 2
	cfg.Elements = 4000
	cfg.Distinct = 1000
	cfg.Codec = wire.CodecBinary
	cfg.Batch = 32
	cfg.Window = 4
	cfg.Flood = true
	res, err := RunIngestBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offers != cfg.Elements {
		t.Fatalf("flood mode shipped %d offers, want one per element (%d)", res.Offers, cfg.Elements)
	}
	if res.Window != 4 || !res.Flood {
		t.Fatalf("bench result does not record the pipelined flood config: %+v", res)
	}
}
