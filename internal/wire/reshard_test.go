package wire

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// testRouteHash mirrors the cluster router's routing hash (the SplitMix64
// finalizer over the shared digest) without importing internal/cluster.
func testRouteHash(hasher hashing.UnitHasher) func(string) uint64 {
	return func(key string) uint64 { return hashing.Mix64(hasher.Hash(key)) }
}

// TestRouteUpdatePrunesSample checks the server half of a reshard restrict:
// a route-update keeps exactly the entries hashing into the assigned range,
// ratchets the route version, and fences stale versions.
func TestRouteUpdatePrunesSample(t *testing.T) {
	hasher := hashing.NewMurmur2(11)
	rh := testRouteHash(hasher)
	coord := core.NewInfiniteCoordinator(64)
	srv := NewCoordinatorServer(coord)
	srv.SetRouteHash(rh)
	defer srv.Close()
	sc := NewMemSync(srv)
	defer sc.Close()

	var entries []netsim.SampleEntry
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("prune-%d", i)
		entries = append(entries, netsim.SampleEntry{Key: key, Hash: hasher.Unit(key)})
	}
	if _, err := sc.SyncFrame(0, 1, 0, infiniteState(64, entries...)); err != nil {
		t.Fatal(err)
	}
	const mid = 1 << 63
	wantKept := 0
	for _, e := range entries {
		if rh(e.Key) < mid {
			wantKept++
		}
	}
	if wantKept == 0 || wantKept == len(entries) {
		t.Fatalf("degenerate test data: %d of %d keys below the midpoint", wantKept, len(entries))
	}
	ackVer, err := sc.RouteUpdate(3, 0, mid)
	if err != nil {
		t.Fatal(err)
	}
	if ackVer != 3 {
		t.Fatalf("route-update ack version = %d, want 3", ackVer)
	}
	if got := srv.RouteVersion(); got != 3 {
		t.Fatalf("server route version = %d, want 3", got)
	}
	kept := srv.Sample()
	if len(kept) != wantKept {
		t.Fatalf("prune kept %d entries, want %d", len(kept), wantKept)
	}
	for _, e := range kept {
		if rh(e.Key) >= mid {
			t.Fatalf("entry %q (routing hash %#x) survived a prune to [0, %#x)", e.Key, rh(e.Key), uint64(mid))
		}
	}
	// A stale route-update (version 2 < 3) is fenced: nothing changes and
	// the ack reveals the applied version.
	ackVer, err = sc.RouteUpdate(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ackVer != 3 {
		t.Fatalf("stale route-update ack = %d, want 3", ackVer)
	}
	if got := srv.Sample(); len(got) != wantKept {
		t.Fatalf("stale route-update changed the sample: %d entries", len(got))
	}
}

// TestStateHandoffAbsorbsFiltered checks the receiving half of a handoff:
// only the entries in the carried range are absorbed, absorption merges with
// (never replaces) the local sample, application is idempotent, and stale
// handoffs are fenced by route version.
func TestStateHandoffAbsorbsFiltered(t *testing.T) {
	hasher := hashing.NewMurmur2(12)
	rh := testRouteHash(hasher)
	srv := NewCoordinatorServer(core.NewInfiniteCoordinator(64))
	srv.SetRouteHash(rh)
	defer srv.Close()
	sc := NewMemSync(srv)
	defer sc.Close()

	// The receiver already owns some state of its own.
	local := netsim.SampleEntry{Key: "local-1", Hash: hasher.Unit("local-1")}
	if _, err := sc.SyncFrame(0, 1, 0, infiniteState(64, local)); err != nil {
		t.Fatal(err)
	}
	const mid = 1 << 63
	var donor []netsim.SampleEntry
	wantAbsorbed := 0
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("handoff-%d", i)
		donor = append(donor, netsim.SampleEntry{Key: key, Hash: hasher.Unit(key)})
		if rh(key) >= mid {
			wantAbsorbed++
		}
	}
	donorState := infiniteState(64, donor...)
	if _, err := sc.HandoffState(2, mid, 0, donorState); err != nil {
		t.Fatal(err)
	}
	got := srv.Sample()
	if len(got) != wantAbsorbed+1 {
		t.Fatalf("after handoff: %d entries, want %d absorbed + 1 local", len(got), wantAbsorbed)
	}
	keys := make(map[string]bool, len(got))
	for _, e := range got {
		keys[e.Key] = true
		if e.Key != local.Key && rh(e.Key) < mid {
			t.Fatalf("out-of-range entry %q absorbed", e.Key)
		}
	}
	if !keys[local.Key] {
		t.Fatal("handoff replaced the receiver's own state instead of merging")
	}
	// Idempotent re-application.
	if _, err := sc.HandoffState(2, mid, 0, donorState); err != nil {
		t.Fatal(err)
	}
	if again := srv.Sample(); len(again) != len(got) {
		t.Fatalf("re-applied handoff changed the sample: %d -> %d entries", len(got), len(again))
	}
	// Move the route version forward; a handoff stamped below it is fenced.
	if _, err := sc.RouteUpdate(5, mid, 0); err != nil {
		t.Fatal(err)
	}
	sizeAfterPrune := len(srv.Sample())
	ackVer, err := sc.HandoffState(4, 0, 0, infiniteState(64, netsim.SampleEntry{Key: "stale", Hash: 0.000001}))
	if err != nil {
		t.Fatal(err)
	}
	if ackVer != 5 {
		t.Fatalf("stale handoff ack version = %d, want 5", ackVer)
	}
	if got := srv.Sample(); len(got) != sizeAfterPrune {
		t.Fatalf("stale handoff was applied: %d -> %d entries", sizeAfterPrune, len(got))
	}
}

// TestRouteFramesRequireRouteHash checks that a coordinator without the
// shared routing hash rejects reshard frames loudly: range filtering is
// impossible without it, and a silent accept could lose sample entries.
func TestRouteFramesRequireRouteHash(t *testing.T) {
	srv := NewCoordinatorServer(core.NewInfiniteCoordinator(4))
	defer srv.Close()
	sc := NewMemSync(srv)
	defer sc.Close()
	if _, err := sc.RouteUpdate(1, 0, 0); err == nil || !strings.Contains(err.Error(), "routing hash") {
		t.Fatalf("route-update without routing hash: err = %v", err)
	}
	sc2 := NewMemSync(srv)
	defer sc2.Close()
	if _, err := sc2.HandoffState(1, 0, 0, infiniteState(4)); err == nil || !strings.Contains(err.Error(), "routing hash") {
		t.Fatalf("state-handoff without routing hash: err = %v", err)
	}
}

// TestPartitionDeposedPrimaryIsFenced asserts the lease fix for the gap
// PR 3 documented: a primary deposed by a *partition* used to keep
// acknowledging offers it could never sync ("doomed" offers, fenced only at
// its next state push). Under leases, the partitioned primary's quorum
// renewals stop, its lease runs down, and it fences its OWN ingest with
// wire.ErrLeaseLapsed within one lease interval — so no offer is ever
// acknowledged by a primary the group has moved past, and the site replays
// the refused offers to the promoted replica with nothing lost.
//
// It runs at several batch sizes and windows: however many frames are in
// flight when the fence fires, every later call still hands its arrival to
// the site node and leaves the node's offers in Unacked.
func TestPartitionDeposedPrimaryIsFenced(t *testing.T) {
	for _, opts := range []Options{
		{BatchSize: 4},
		{BatchSize: 1, Window: 2},
		{BatchSize: 4, Window: 4},
	} {
		t.Run(fmt.Sprintf("batch%d-window%d", opts.BatchSize, opts.Window), func(t *testing.T) {
			testPartitionDeposedPrimaryIsFenced(t, opts)
		})
	}
}

func testPartitionDeposedPrimaryIsFenced(t *testing.T, opts Options) {
	const (
		s     = 8
		lease = 150 * time.Millisecond
	)
	before := obs.Default().Snapshot()
	evBase := obs.Events().Seq()
	hasher := hashing.NewMurmur2(31)
	primary := NewCoordinatorServer(core.NewInfiniteCoordinator(s))
	defer primary.Close()
	replica := NewCoordinatorServer(core.NewInfiniteCoordinator(s))
	defer replica.Close()

	// Arm the lease the way the replication plane does: a quorum-backed
	// renewal at the primary's current epoch. One renewal buys one interval.
	renewer := NewMemSync(primary)
	defer renewer.Close()
	if _, err := renewer.RenewLease(0, lease); err != nil {
		t.Fatal(err)
	}

	site := core.NewInfiniteSite(0, hasher)
	client, err := DialSiteMem(site, primary, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Pre-partition: ingest under a live lease, then one state-frame catches
	// the replica up.
	oracle := core.NewReference(s, hasher)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("pre-%d", i)
		oracle.Observe(key)
		if err := client.Observe(key, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	st, _, slot, _ := primary.SnapshotSync()
	push := NewMemSync(replica)
	defer push.Close()
	if _, err := push.SyncFrame(0, 1, slot, core.EncodeState(st)); err != nil {
		t.Fatal(err)
	}
	if got := replica.Sample(); len(got) != s {
		t.Fatalf("replica holds %d entries pre-partition, want %d", len(got), s)
	}

	// The partition: the group can reach the replica but not the (still
	// live) primary, so the replica is promoted to epoch 1 and the primary's
	// renewals stop. The primary is NOT closed — that is the difference from
	// a crash, and why only the lease can fence it.
	promoter := NewMemSync(replica)
	defer promoter.Close()
	if epoch, err := promoter.Promote(1); err != nil || epoch != 1 {
		t.Fatalf("promote = (%d, %v), want (1, nil)", epoch, err)
	}
	time.Sleep(lease + 20*time.Millisecond) // one lease interval with no renewal

	// A site still on the primary's side of the partition keeps ingesting.
	// The keys are mined for tiny unit hashes so the site is certain to
	// offer them (far below its threshold) and, were they accepted and
	// leaked, certain to displace sample entries.
	var doomed []string
	for i := 0; len(doomed) < 10 && i < 2_000_000; i++ {
		key := fmt.Sprintf("doomed-%d", i)
		if hasher.Unit(key) < 0.005 {
			doomed = append(doomed, key)
		}
	}
	if len(doomed) < 10 {
		t.Fatal("could not mine doomed keys (hash search exhausted)")
	}
	var fenced error
	for _, key := range doomed {
		oracle.Observe(key)
		if err := client.Observe(key, 1); err != nil && fenced == nil {
			fenced = err
		}
	}
	if err := client.Flush(); err != nil && fenced == nil {
		fenced = err
	}
	if !errors.Is(fenced, ErrLeaseLapsed) {
		t.Fatalf("offers against a lapsed lease: err = %v, want errors.Is(err, ErrLeaseLapsed)", fenced)
	}
	for _, e := range primary.Sample() {
		for _, key := range doomed {
			if e.Key == key {
				t.Fatalf("fenced primary accepted doomed offer %q", key)
			}
		}
	}

	// The site heals exactly like the cluster client does: reconnect the
	// surviving site node to the promoted replica and replay everything the
	// fenced primary refused. Nothing is lost — the replica's sample is
	// byte-identical to a reference that saw every key.
	unacked := client.Unacked()
	if len(unacked) == 0 {
		t.Fatal("no unacked offers to replay; the fence should have refused them, not swallowed them")
	}
	healed, err := DialSiteMem(site, replica, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer healed.Close()
	if err := healed.Replay(unacked); err != nil {
		t.Fatal(err)
	}
	want, got := oracle.Sample(), replica.Sample()
	if len(got) != len(want) {
		t.Fatalf("replica sample has %d entries after replay, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || got[i].Hash != want[i].Hash {
			t.Fatalf("replica sample[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Defense in depth: even the deposed primary's state push stays fenced
	// by epoch, and the ack teaches it the newer epoch.
	st, _, slot, _ = primary.SnapshotSync()
	ackEpoch, err := push.SyncFrame(0, 2, slot, core.EncodeState(st))
	if err != nil {
		t.Fatal(err)
	}
	if ackEpoch != 1 {
		t.Fatalf("deposed primary's sync ack epoch = %d, want 1", ackEpoch)
	}
	if replica.Epoch() != 1 || !replica.Promoted() {
		t.Fatalf("replica epoch/promoted = %d/%v, want 1/true", replica.Epoch(), replica.Promoted())
	}

	// The lapse is instrumented: one edge-triggered counter tick and one
	// control-plane event, however many offers the fence refused.
	after := obs.Default().Snapshot()
	if d := after.Counter("dds_lease_lapses_total") - before.Counter("dds_lease_lapses_total"); d != 1 {
		t.Fatalf("dds_lease_lapses_total delta = %d, want 1 (edge-triggered)", d)
	}
	saw := false
	for _, ev := range obs.Events().Since(evBase) {
		if ev.Msg == "lease lapsed" {
			saw = true
		}
	}
	if !saw {
		t.Fatal("no lease-lapsed event recorded")
	}
}
