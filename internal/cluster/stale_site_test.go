package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/wire"
)

// TestStaleSiteStrayKeysAcrossReshards asserts the fix for ROADMAP gap (a):
// coordinators push route updates to every connected site at cutover, so a
// *cross-process* site that nobody restarted still follows reshards. A
// stale, unregistered site takes the first reshard's route push on its
// connection's reader, then offers "stray" keys whose range moved to another
// shard in that reshard: it routes them straight to their new owner, so the
// donor's strict-route fence never fires and no reroute is spent, and after
// a SECOND reshard prunes the donor the strays are still in the merged
// sample — byte-identical to a reference that saw every key. (A site that
// misses the push heals through the fence instead; the FanOutHeal tests
// cover that path.)
//
// Before the push channel existed this test pinned the opposite contract:
// strays were silently dropped by the second reshard's restrict prune, and
// "restart external sites after resharding" was the documented operational
// requirement. That requirement is gone.
func TestStaleSiteStrayKeysAcrossReshards(t *testing.T) {
	const (
		s    = 16
		seed = 1337
	)
	before := obs.Default().Snapshot()
	hasher := hashing.NewMurmur2(seed)
	router := NewShardRouter(1, hasher)
	srv, err := replica.Listen("127.0.0.1:0", 1, replica.Options{
		Replicas:     1,
		SyncInterval: 20 * time.Millisecond,
		Codec:        wire.CodecBinary,
		RouteHash:    router.RouteHash,
	}, func(int, int) netsim.CoordinatorNode {
		return core.NewInfiniteCoordinator(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rs := NewResharder(srv, router.Table(), wire.CodecBinary)

	// The registered (in-process, flip-aware) client.
	registered, err := DialGroups(srv.GroupAddrs(), router, func(int) netsim.SiteNode {
		return core.NewInfiniteSite(0, hasher)
	}, wire.Options{Codec: wire.CodecBinary, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	rs.Register(registered)

	// The stale external site: dialed under the original 1-shard partition
	// and never registered, so no cutover ever flips it — exactly a site in
	// another process that nobody restarted. Only route pushes reach it;
	// DialGroups parks each one in the client's mailbox before calling this
	// callback.
	pushed := make(chan struct{}, 1)
	stale, err := DialGroups(srv.GroupAddrs(), router, func(int) netsim.SiteNode {
		return core.NewInfiniteSite(1, hasher)
	}, wire.Options{Codec: wire.CodecBinary, OnRoutePush: func(*wire.Frame) {
		select {
		case pushed <- struct{}{}:
		default:
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()

	oracle := core.NewReference(s, hasher)
	baseKeys := make([]string, 0, 600)
	for i := 0; i < 600; i++ {
		key := fmt.Sprintf("base-%d", i)
		baseKeys = append(baseKeys, key)
		oracle.Observe(key)
		if err := registered.Observe(key, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := registered.Flush(); err != nil {
		t.Fatal(err)
	}

	checkMerged := func(label string, want []netsim.SampleEntry) {
		t.Helper()
		samples, err := srv.PrimarySamples()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got := Merge(s, samples...)
		if len(got) != len(want) {
			t.Fatalf("%s: merged sample has %d entries, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i].Key != want[i].Key || got[i].Hash != want[i].Hash {
				t.Fatalf("%s: merged sample[%d] = %+v, want %+v", label, i, got[i], want[i])
			}
		}
	}

	// First reshard: split slot 0's full range at the midpoint; slot 1 now
	// owns the upper half, and the donor pruned it away.
	mid, err := rs.Table().SplitPoint(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	runPlanPumping(t, []*SiteClient{registered}, func() (*ReshardReport, error) { return rs.Split(0, mid) })
	checkMerged("after first split", oracle.Sample())

	// Stray keys: their routing hash moved to slot 1, which the stale site
	// routed to slot 0 before the split — and chosen with tiny unit hashes
	// so they land in the global bottom-s and any loss is visible. (Unit
	// hash decides sample membership; the routing hash is its SplitMix64
	// rehash, so "in the moved range" and "in the bottom-s" are independent
	// and both satisfiable.) The stale site applies the pushed table at its
	// next call and offers each stray to slot 1.
	var strays []string
	for i := 0; len(strays) < 3 && i < 4_000_000; i++ {
		key := fmt.Sprintf("stray-%d", i)
		if rh := router.RouteHash(key); rh < mid {
			continue // still owned by the donor; not a stray
		}
		if hasher.Unit(key) > 0.0005 {
			continue // would not enter the bottom-s reliably
		}
		strays = append(strays, key)
	}
	if len(strays) < 3 {
		t.Fatal("could not find stray candidates (hash search exhausted)")
	}
	select {
	case <-pushed:
	case <-time.After(10 * time.Second):
		t.Fatal("no route push reached the stale site")
	}
	beforeStrays := obs.Default().Snapshot()
	for _, key := range strays {
		oracle.Observe(key)
		if err := stale.Observe(key, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := stale.Flush(); err != nil {
		t.Fatal(err)
	}
	// Sanity: the strays really are sample-worthy.
	for _, key := range strays {
		found := false
		for _, e := range oracle.Sample() {
			if e.Key == key {
				found = true
			}
		}
		if !found {
			t.Fatalf("stray %q did not enter the reference bottom-%d; pick smaller hashes", key, s)
		}
	}

	// The strays went straight to their new owner, so queries are exact
	// immediately, and nothing was fenced or rerouted on the way.
	checkMerged("after stale strays (pushed table)", oracle.Sample())
	afterStrays := obs.Default().Snapshot()
	for _, name := range []string{`dds_wire_fence_rejections_total{fence="strict-route"}`, `dds_retry_attempts_total{op="reroute"}`} {
		if d := afterStrays.Counter(name) - beforeStrays.Counter(name); d != 0 {
			t.Fatalf("%s moved by %d while the strays were offered: the stale site did not follow the push", name, d)
		}
	}

	// The push flipped the stale client to the current table.
	if v := stale.RouteVersion(); v < rs.Table().Version {
		t.Fatalf("stale client route version = %d, want >= %d (pushed table applied)", v, rs.Table().Version)
	}

	// Second reshard pruning the donor: split slot 0's remaining range. The
	// strays live on slot 1 now — inside the current owner's range — so the
	// restrict prune cannot touch them. (Before the push channel, this is
	// the step that silently dropped them.)
	mid2, err := rs.Table().SplitPoint(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	runPlanPumping(t, []*SiteClient{registered}, func() (*ReshardReport, error) { return rs.Split(0, mid2) })

	// The merged sample is byte-identical to a reference that saw every key,
	// strays included: no offer was lost to the missed reshard.
	checkMerged("after second split (strays survive)", oracle.Sample())

	// And the coordinators really pushed route frames at cutover. A delta,
	// not an absolute — the registry is process-global.
	after := obs.Default().Snapshot()
	if d := after.Counter("dds_route_pushes_total") - before.Counter("dds_route_pushes_total"); d == 0 {
		t.Fatal("dds_route_pushes_total did not move: no route frames were pushed at cutover")
	}

	if err := registered.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFanOutHealOnCallerGoroutine: a two-shard client that missed a reshard
// moving part of slot 0's range to slot 1 flushes offers for the moved keys.
// Its drain fan-out hits slot 0's stale-route fence, and the heal replays the
// refused offers into slot 1's connection — which a sibling fan-out
// goroutine is flushing at the same time, so the heal must wait for the join
// and run on the caller's goroutine (run under -race). The merged sample
// stays byte-identical to the reference. It runs with one frame and with two
// in flight.
func TestFanOutHealOnCallerGoroutine(t *testing.T) {
	for _, window := range []int{1, 2} {
		t.Run(fmt.Sprintf("window%d", window), func(t *testing.T) { testFanOutHealOnCallerGoroutine(t, window) })
	}
}

func testFanOutHealOnCallerGoroutine(t *testing.T, window int) {
	const (
		s    = 8
		seed = 29
	)
	before := obs.Default().Snapshot()
	hasher := hashing.NewMurmur2(seed)
	router := NewShardRouter(2, hasher)
	srv := listenFor(t, 2, s, false)

	// The missed reshard: slot 0 keeps [0, mid) and slot 1 takes [mid, 2^64).
	old := router.Table()
	mid := old.Bounds[1] / 2
	next := RangeTable{Version: old.Version + 1, Bounds: []uint64{0, mid}, Slots: []int{0, 1}}
	fenceServers(t, srv, router, next)

	// One batch per shard, shipped only by the drain.
	client, err := DialSites(srv.Addrs(), router, func(int) netsim.SiteNode {
		return core.NewInfiniteSite(0, hasher)
	}, wire.Options{Codec: wire.CodecBinary, BatchSize: 1 << 12, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	oracle := core.NewReference(s, hasher)
	moved := make(map[string]bool)
	for i := 0; i < 600; i++ {
		key := fmt.Sprintf("heal-%d", i)
		if rh := router.RouteHash(key); rh >= mid && rh < old.Bounds[1] {
			moved[key] = true
		}
		oracle.Observe(key)
		if err := client.Observe(key, 0); err != nil {
			t.Fatal(err)
		}
	}
	strays := 0
	for _, key := range oracle.SampleKeys() {
		if moved[key] {
			strays++
		}
	}
	if strays == 0 {
		t.Fatal("no moved key is in the reference sample; pick another seed")
	}

	client.OfferRouteUpdate(&RouteUpdate{Table: next, Groups: [][]string{{srv.addrs[0]}, {srv.addrs[1]}}})
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if v := client.RouteVersion(); v != next.Version {
		t.Fatalf("route version %d after the flush, want %d", v, next.Version)
	}
	if n, _ := client.ReshardStalls(); n != 1 {
		t.Fatalf("the route update was applied %d times, want once", n)
	}
	after := obs.Default().Snapshot()
	delta := func(name string) uint64 { return after.Counter(name) - before.Counter(name) }
	if delta(`dds_retry_attempts_total{op="reroute"}`) == 0 {
		t.Fatal("the drain never hit the stale-route fence")
	}
	if delta(`dds_wire_fence_rejections_total{fence="strict-route"}`) == 0 {
		t.Fatal("the stale-route NACK was not counted as a strict-route fence")
	}
	if d := delta("dds_lease_lapses_total"); d != 0 {
		t.Fatalf("the stale-route NACK counted %d lease lapses", d)
	}
	if got := srv.MergedSample(s); !oracle.SameSample(got) {
		t.Fatalf("merged sample (%d moved keys in the reference's) differs from the reference:\n got: %v\nwant: %v", strays, got, oracle.Sample())
	}
}

// fenceServers applies table next to the coordinators of srv, as a reshard
// the client under test missed: each coordinator owns its range of next (a
// slot next retires owns the empty range) and fences offers outside it.
func fenceServers(t *testing.T, srv *Server, router *ShardRouter, next RangeTable) {
	t.Helper()
	for slot, cs := range srv.servers {
		cs.SetRouteHash(router.RouteHash)
		lo, hi, ok := next.RangeOf(slot)
		if !ok {
			lo, hi = 1, 1
		}
		if _, err := wire.RouteUpdateAddr(srv.addrs[slot], next.Version, lo, hi, wire.CodecBinary); err != nil {
			t.Fatal(err)
		}
		cs.RestrictRoute()
	}
}

// TestFanOutHealSkipsRetiredSlot: two shards of one drain fan-out are
// fenced, and healing the first flips to a table that retires the second,
// after settling its offers. The second then needs no heal of its own, and
// the client must not re-dial the retired slot. It runs with one frame and
// with two in flight.
func TestFanOutHealSkipsRetiredSlot(t *testing.T) {
	for _, window := range []int{1, 2} {
		t.Run(fmt.Sprintf("window%d", window), func(t *testing.T) { testFanOutHealSkipsRetiredSlot(t, window) })
	}
}

func testFanOutHealSkipsRetiredSlot(t *testing.T, window int) {
	const (
		s    = 8
		seed = 29
	)
	hasher := hashing.NewMurmur2(seed)
	router := NewShardRouter(3, hasher)
	srv := listenFor(t, 3, s, false)

	// The missed reshard: slot 0 gives the top half of its range to slot 2,
	// which also absorbs slot 1's whole range, retiring slot 1. Both slot 0
	// and slot 1 fence, and slot 0 heals first.
	old := router.Table()
	next := RangeTable{Version: old.Version + 1, Bounds: []uint64{0, old.Bounds[1] / 2}, Slots: []int{0, 2}}
	fenceServers(t, srv, router, next)

	client, err := DialSites(srv.Addrs(), router, func(int) netsim.SiteNode {
		return core.NewInfiniteSite(0, hasher)
	}, wire.Options{Codec: wire.CodecBinary, BatchSize: 1 << 12, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	oracle := core.NewReference(s, hasher)
	for i := 0; i < 600; i++ {
		key := fmt.Sprintf("retire-%d", i)
		oracle.Observe(key)
		if err := client.Observe(key, 0); err != nil {
			t.Fatal(err)
		}
	}
	client.OfferRouteUpdate(&RouteUpdate{Table: next, Groups: [][]string{{srv.addrs[0]}, nil, {srv.addrs[2]}}})
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if v := client.RouteVersion(); v != next.Version {
		t.Fatalf("route version %d after the flush, want %d", v, next.Version)
	}
	if client.shards[1].client != nil {
		t.Fatal("the client re-dialed slot 1 after the table retired it")
	}
	if got := srv.MergedSample(s); !oracle.SameSample(got) {
		t.Fatalf("merged sample differs from the reference:\n got: %v\nwant: %v", got, oracle.Sample())
	}
}
