package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"
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

// countingHasher counts every digest computed through it.
type countingHasher struct {
	hashing.UnitHasher
	calls atomic.Int64
}

func (h *countingHasher) Hash(key string) uint64 {
	h.calls.Add(1)
	return h.UnitHasher.Hash(key)
}

func (h *countingHasher) Unit(key string) float64 {
	h.calls.Add(1)
	return h.UnitHasher.Unit(key)
}

// siteOnly hides every method of a site node but netsim.SiteNode's, as a
// tracing wrapper does.
type siteOnly struct{ netsim.SiteNode }

// digestOpts are the transport settings a digest travels through: one offer
// per frame, batched, and pipelined.
var digestOpts = []wire.Options{
	{Codec: wire.CodecBinary},
	{Codec: wire.CodecBinary, BatchSize: 16},
	{Codec: wire.CodecBinary, BatchSize: 16, Window: 4},
}

// listenFor starts a cluster of infinite-window coordinators of sample size
// s, or sliding-window ones when windowed.
func listenFor(t testing.TB, shards, s int, windowed bool) *Server {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", shards, func(int) netsim.CoordinatorNode {
		if windowed {
			return sliding.NewCoordinator()
		}
		return core.NewInfiniteCoordinator(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

// feed observes elements in order through client, ending each slot after
// its last element when windowed, and fails unless every Observe made
// exactly calls calls on h. It closes the client.
func feed(t *testing.T, client *SiteClient, elements []stream.Element, windowed bool, h *countingHasher, calls int64) {
	t.Helper()
	for i, e := range elements {
		before := h.calls.Load()
		if err := client.Observe(e.Key, e.Slot); err != nil {
			t.Fatal(err)
		}
		if got := h.calls.Load() - before; got != calls {
			t.Fatalf("Observe #%d made %d hasher calls, want %d", i, got, calls)
		}
		if windowed && (i+1 == len(elements) || elements[i+1].Slot != e.Slot) {
			if err := client.EndSlot(e.Slot); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

// sameJSON fails unless got and want encode identically.
func sameJSON(t *testing.T, what string, got, want []netsim.SampleEntry) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s differs from the reference\n got: %s\nwant: %s", what, g, w)
	}
}

// TestObserveHashesEachArrivalOnce is the hash-once ingest path: when a
// site node filters with the router's hasher, the digest that picks the
// shard also feeds the node's filter, so each arrival costs one hasher call
// on every transport. A node that exposes only netsim.SiteNode hashes for
// itself. The samples are exact either way.
func TestObserveHashesEachArrivalOnce(t *testing.T) {
	const (
		shards = 2
		s      = 16
		window = 40
		seed   = 31
	)
	elements := stream.Reslot(dataset.Uniform(3000, 800, seed).Generate(), 5)
	plain := hashing.NewMurmur2(seed)
	oracle := core.NewReference(s, plain)
	oracle.ObserveAll(stream.Keys(elements))
	last := elements[len(elements)-1].Slot
	best := netsim.SampleEntry{Hash: 2}
	for key := range stream.WindowDistinct(distribute.Apply(elements, distribute.NewRoundRobin(1)), last, window) {
		if u := plain.Unit(key); u < best.Hash {
			best = netsim.SampleEntry{Key: key, Hash: u}
		}
	}

	for _, tc := range []struct {
		name     string
		windowed bool
		newSite  func(h hashing.UnitHasher, shard int) netsim.SiteNode
		calls    int64
	}{
		{"infinite", false, func(h hashing.UnitHasher, _ int) netsim.SiteNode {
			return core.NewInfiniteSite(0, h)
		}, 1},
		{"sliding", true, func(h hashing.UnitHasher, shard int) netsim.SiteNode {
			return sliding.NewSite(0, h, window, uint64(shard)+1)
		}, 1},
		{"site-only wrapper", false, func(h hashing.UnitHasher, _ int) netsim.SiteNode {
			return siteOnly{core.NewInfiniteSite(0, h)}
		}, 2},
	} {
		for _, opts := range digestOpts {
			t.Run(fmt.Sprintf("%s/%s-batch%d-window%d", tc.name, opts.Codec, opts.BatchSize, opts.Window), func(t *testing.T) {
				h := &countingHasher{UnitHasher: hashing.NewMurmur2(seed)}
				srv := listenFor(t, shards, s, tc.windowed)
				client, err := DialSites(srv.Addrs(), NewShardRouter(shards, h), func(shard int) netsim.SiteNode {
					return tc.newSite(h, shard)
				}, opts)
				if err != nil {
					t.Fatal(err)
				}
				feed(t, client, elements, tc.windowed, h, tc.calls)
				if !tc.windowed {
					sameJSON(t, "merged sample", srv.MergedSample(s), oracle.Sample())
					return
				}
				merged, err := Query(srv.Addrs(), 1, opts.Codec)
				if err != nil {
					t.Fatal(err)
				}
				if len(merged) != 1 || merged[0].Key != best.Key || merged[0].Hash != best.Hash {
					t.Fatalf("merged window sample %+v, want the window minimum %+v", merged, best)
				}
			})
		}
	}
}

// TestForeignSeedSiteHashesItself: a site factory over a hasher of another
// seed than the router's must not be handed the router's digest. Its node
// hashes every arrival itself, and the merged sample is the reference
// sample under the site's hasher, byte for byte.
func TestForeignSeedSiteHashesItself(t *testing.T) {
	const (
		shards = 2
		s      = 16
	)
	elements := dataset.Uniform(3000, 800, 5).Generate()
	oracle := core.NewReference(s, hashing.NewMurmur2(2))
	oracle.ObserveAll(stream.Keys(elements))
	for _, opts := range digestOpts {
		t.Run(fmt.Sprintf("%s-batch%d-window%d", opts.Codec, opts.BatchSize, opts.Window), func(t *testing.T) {
			route := &countingHasher{UnitHasher: hashing.NewMurmur2(1)}
			site := &countingHasher{UnitHasher: hashing.NewMurmur2(2)}
			srv := listenFor(t, shards, s, false)
			client, err := DialSites(srv.Addrs(), NewShardRouter(shards, route), func(int) netsim.SiteNode {
				return core.NewInfiniteSite(0, site)
			}, opts)
			if err != nil {
				t.Fatal(err)
			}
			feed(t, client, elements, false, route, 1)
			if got := site.calls.Load(); got != int64(len(elements)) {
				t.Fatalf("site hasher made %d calls for %d arrivals, want one each", got, len(elements))
			}
			sameJSON(t, "merged sample", srv.MergedSample(s), oracle.Sample())
		})
	}
}

// TestTakesDigest pins which site nodes are handed the router's digest: only
// nodes with a digest entry point over the router's hash function.
func TestTakesDigest(t *testing.T) {
	h := hashing.NewMurmur2(9)
	counting := &countingHasher{UnitHasher: h}
	for _, tc := range []struct {
		name   string
		router hashing.UnitHasher
		node   netsim.SiteNode
		want   bool
	}{
		{"infinite, one hasher", h, core.NewInfiniteSite(0, h), true},
		{"sliding, one hasher", h, sliding.NewSite(0, h, 8, 1), true},
		{"same kind and seed", h, core.NewInfiniteSite(0, hashing.NewMurmur2(9)), true},
		{"one wrapper instance", counting, core.NewInfiniteSite(0, counting), true},
		{"other seed", h, core.NewInfiniteSite(0, hashing.NewMurmur2(10)), false},
		{"other kind", h, core.NewInfiniteSite(0, hashing.NewMurmur3(9)), false},
		{"wrapper and its inner hasher", counting, core.NewInfiniteSite(0, h), false},
		{"site-only wrapper", h, siteOnly{core.NewInfiniteSite(0, h)}, false},
		{"hasher family", h, core.NewWithReplacementSite(0, hashing.NewFamily(hashing.KindMurmur2, 9, 4)), false},
	} {
		c := &SiteClient{hasher: tc.router}
		if got := c.takesDigest(tc.node); got != tc.want {
			t.Errorf("%s: takesDigest = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDroppedArrivalAllocatesNothing: an arrival the site filter drops, the
// fate of almost every arrival, costs no allocation anywhere on the ingest
// path, on every transport.
func TestDroppedArrivalAllocatesNothing(t *testing.T) {
	const (
		shards = 2
		s      = 16
		seed   = 8
	)
	h := hashing.NewMurmur2(seed)
	keys := stream.Keys(dataset.Uniform(4000, 2000, seed).Generate())
	// Every shard's threshold ends far below 0.5 (about s/1000), so this
	// key is dropped by the first comparison.
	drop := ""
	for i := 0; drop == ""; i++ {
		if key := fmt.Sprintf("drop-%d", i); h.Unit(key) >= 0.5 {
			drop = key
		}
	}
	for _, opts := range digestOpts {
		t.Run(fmt.Sprintf("%s-batch%d-window%d", opts.Codec, opts.BatchSize, opts.Window), func(t *testing.T) {
			srv := listenFor(t, shards, s, false)
			client, err := DialSites(srv.Addrs(), NewShardRouter(shards, h), func(int) netsim.SiteNode {
				return core.NewInfiniteSite(0, h)
			}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			for _, key := range keys {
				if err := client.Observe(key, 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := client.Flush(); err != nil {
				t.Fatal(err)
			}
			sent := client.MessagesSent()
			allocs := testing.AllocsPerRun(200, func() {
				if err := client.Observe(drop, 0); err != nil {
					t.Fatal(err)
				}
			})
			if err := client.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := client.MessagesSent(); got != sent {
				t.Fatalf("the dropped key was offered: %d messages sent, want %d", got, sent)
			}
			if allocs != 0 {
				t.Fatalf("a dropped arrival allocates %.1f times, want 0", allocs)
			}
		})
	}
}

// BenchmarkObserveDropped times the paper's common case on the client side:
// an arrival the site filter drops, through a warmed two-shard pipelined
// binary client. It must report 0 allocs/op.
func BenchmarkObserveDropped(b *testing.B) {
	const (
		shards = 2
		s      = 16
		seed   = 8
	)
	h := hashing.NewMurmur2(seed)
	srv := listenFor(b, shards, s, false)
	client, err := DialSites(srv.Addrs(), NewShardRouter(shards, h), func(int) netsim.SiteNode {
		return core.NewInfiniteSite(0, h)
	}, wire.Options{Codec: wire.CodecBinary, BatchSize: 64, Window: wire.DefaultWindow})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	for _, key := range stream.Keys(dataset.Uniform(4000, 2000, seed).Generate()) {
		if err := client.Observe(key, 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		b.Fatal(err)
	}
	// Every shard's threshold ends far below 0.5 (about s/1000), so these
	// keys, routed to both shards, are all dropped by the first comparison.
	drops := make([]string, 0, 1024)
	for i := 0; len(drops) < cap(drops); i++ {
		if key := fmt.Sprintf("drop-%d", i); h.Unit(key) >= 0.5 {
			drops = append(drops, key)
		}
	}
	sent := client.MessagesSent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Observe(drops[i&(len(drops)-1)], 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := client.MessagesSent(); got != sent {
		b.Fatalf("a dropped key was offered: %d messages sent, want %d", got, sent)
	}
}
