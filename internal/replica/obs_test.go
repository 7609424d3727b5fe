package replica

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sliding"
	"repro/internal/wire"
)

// TestAddGroupNotSnapshottableTyped pins the typed sentinel at the replica
// attach seam: a coordinator node without the Snapshot/Restore API is
// rejected with an error wrapping wire.ErrNotSnapshottable, so callers can
// branch on the capability instead of matching error text.
func TestAddGroupNotSnapshottableTyped(t *testing.T) {
	_, err := Listen("127.0.0.1:0", 1, Options{Replicas: 1}, func(int, int) netsim.CoordinatorNode {
		return core.NewBroadcastCoordinator(1)
	})
	if err == nil {
		t.Fatal("Listen should reject non-snapshottable coordinators when replicas are enabled")
	}
	if !errors.Is(err, wire.ErrNotSnapshottable) {
		t.Fatalf("err = %v, want errors.Is(err, wire.ErrNotSnapshottable)", err)
	}
}

// TestAddGroupMultiCoordinatorSnapshottable asserts the fix for the
// carried-forward gap the sentinel above used to cover: the per-copy
// sliding-window coordinator now implements Snapshot/Restore (section-level
// slot clocks), so a replicated group of them attaches and syncs cleanly.
// (The replica AddGroup path previously returned ErrNotSnapshottable here.)
func TestAddGroupMultiCoordinatorSnapshottable(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", 1, Options{Replicas: 1}, func(int, int) netsim.CoordinatorNode {
		return sliding.NewMultiCoordinator(3)
	})
	if err != nil {
		t.Fatalf("Listen rejected a multi-copy sliding coordinator group: %v", err)
	}
	defer srv.Close()
	if err := srv.SyncNow(); err != nil {
		t.Fatalf("sync round over multi-copy sliding state failed: %v", err)
	}
}

// TestReplicaSyncInstruments drives ingest plus forced and idle sync rounds
// and checks the replication instruments move: rounds pushed, idle rounds
// skipped, state payload counted, the per-slot offer counter fed by the
// injected shard instruments, and the sync-lag gauge set once two pushes
// bound the staleness window. All counter assertions are deltas — the
// default registry is process-global.
func TestReplicaSyncInstruments(t *testing.T) {
	before := obs.Default().Snapshot()

	srv := newGroupServer(t, 1, 1, 16)
	site := core.NewInfiniteSite(0, hashing.NewMurmur2(7))
	client, err := wire.DialSiteOptions(site, srv.GroupAddrs()[0][0], wire.Options{Codec: wire.CodecBinary, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := client.Observe("replica-obs-"+string(rune('a'+i%26))+string(rune('0'+i%10)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	if err := srv.SyncNow(); err != nil {
		t.Fatal(err)
	}
	g := srv.groups[0]
	if err := g.syncRound(Options{Codec: wire.CodecBinary}, false); err != nil { // idle: skipped
		t.Fatal(err)
	}
	if err := srv.SyncNow(); err != nil { // second push: sets the lag gauge
		t.Fatal(err)
	}

	after := obs.Default().Snapshot()
	delta := func(name string) uint64 { return after.Counter(name) - before.Counter(name) }
	if d := delta("dds_replica_sync_rounds_total"); d < 2 {
		t.Fatalf("sync rounds delta = %d, want >= 2", d)
	}
	if d := delta("dds_replica_sync_skipped_total"); d < 1 {
		t.Fatalf("sync skipped delta = %d, want >= 1", d)
	}
	if delta("dds_replica_sync_bytes_total") == 0 {
		t.Fatal("no sync payload bytes counted")
	}
	// The site filters locally (the paper's message-efficiency claim), so
	// only a fraction of the n observes become offer messages — but some must.
	if d := delta(`dds_shard_offers_total{slot="0"}`); d == 0 {
		t.Fatal("per-shard offers counter did not move")
	}
	if lag := after.Gauge(`dds_replica_sync_lag_ns{slot="0"}`); lag <= 0 {
		t.Fatalf("sync-lag gauge = %d, want > 0 after two pushes", lag)
	}
	hBefore, hAfter := before.Histogram("dds_replica_sync_round_ns"), after.Histogram("dds_replica_sync_round_ns")
	var hDelta uint64
	if hAfter != nil {
		hDelta = hAfter.Count
		if hBefore != nil {
			hDelta -= hBefore.Count
		}
	}
	if hDelta < 2 {
		t.Fatalf("sync-round duration observations delta = %d, want >= 2", hDelta)
	}
}

// TestDeposedFenceInstrumented promotes a replica past the sender's epoch and
// pushes a real encoded state at it, stamped with the stale epoch, asserting
// the typed ErrDeposed error, the deposed-fence counter, the control-plane
// event, and that the replica's state did not change.
func TestDeposedFenceInstrumented(t *testing.T) {
	before := obs.Default().Snapshot()
	evBase := obs.Events().Seq()

	srv := newGroupServer(t, 1, 1, 8)
	g := srv.groups[0]
	m := g.memberList()[1]
	if _, err := wire.PromoteAddr(m.addr, 2, wire.CodecBinary); err != nil {
		t.Fatal(err)
	}
	deposed := core.NewInfiniteCoordinator(8)
	deposed.Offer(core.Offer{Key: "deposed", Hash: 0.01})
	err := g.push(m, Options{Codec: wire.CodecBinary}, obs.TraceContext{}, 0, 0, core.EncodeState(deposed.Snapshot()))
	if !errors.Is(err, wire.ErrDeposed) {
		t.Fatalf("stale push err = %v, want errors.Is(err, wire.ErrDeposed)", err)
	}
	if got := m.srv.Sample(); len(got) != 0 {
		t.Fatalf("fenced push was applied: replica sample %v", got)
	}

	after := obs.Default().Snapshot()
	if d := after.Counter("dds_replica_deposed_fences_total") - before.Counter("dds_replica_deposed_fences_total"); d != 1 {
		t.Fatalf("deposed fence delta = %d, want 1", d)
	}
	saw := false
	for _, ev := range obs.Events().Since(evBase) {
		if ev.Msg == "deposed primary fenced" && ev.Attrs["ack_epoch"] == "2" {
			saw = true
		}
	}
	if !saw {
		t.Fatalf("no deposed-fence event recorded (events: %+v)", obs.Events().Since(evBase))
	}
}
