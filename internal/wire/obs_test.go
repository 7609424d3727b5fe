package wire

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/obs"
)

// TestWireInstrumentDeltas drives a batched binary ingest exchange and
// checks the transport instruments moved: frames encoded/decoded by kind,
// bytes in/out, batch sizes, and the per-shard offer/churn counters injected
// via SetShardObs. The default registry is process-global and cumulative, so
// every assertion is on before/after deltas.
func TestWireInstrumentDeltas(t *testing.T) {
	before := obs.Default().Snapshot()

	srv, addr := startServer(t, core.NewInfiniteCoordinator(8))
	offers := obs.Default().Counter(`dds_shard_offers_total{slot="test-wire-obs"}`)
	churn := obs.Default().Counter(`dds_shard_sample_churn_total{slot="test-wire-obs"}`)
	offersBefore, churnBefore := offers.Value(), churn.Value()
	srv.SetShardObs(offers, churn)

	client, err := DialSiteOptions(&floodSite{id: 0, hasher: hashing.NewMurmur2(1)}, addr, Options{Codec: CodecBinary, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := client.Observe("obs-key-"+string(rune('a'+i%26))+"-suffix", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	after := obs.Default().Snapshot()
	delta := func(name string) uint64 { return after.Counter(name) - before.Counter(name) }
	if d := delta(`dds_wire_frames_encoded_total{kind="batch"}`); d == 0 {
		t.Fatal("no batch frames counted as encoded")
	}
	if d := delta(`dds_wire_frames_decoded_total{kind="replies"}`); d == 0 {
		t.Fatal("no replies frames counted as decoded")
	}
	if d := delta("dds_wire_bytes_out_total"); d == 0 {
		t.Fatal("no bytes-out counted")
	}
	if d := delta("dds_wire_bytes_in_total"); d == 0 {
		t.Fatal("no bytes-in counted")
	}
	hBefore, hAfter := before.Histogram("dds_wire_batch_entries"), after.Histogram("dds_wire_batch_entries")
	var hDelta uint64
	if hAfter != nil {
		hDelta = hAfter.Count
		if hBefore != nil {
			hDelta -= hBefore.Count
		}
	}
	if hDelta == 0 {
		t.Fatal("no batch sizes observed")
	}
	if got := offers.Value() - offersBefore; got != n {
		t.Fatalf("per-shard offers counter delta = %d, want %d", got, n)
	}
	if churn.Value() == churnBefore {
		t.Fatal("per-shard churn counter did not move (floodSite offers always generate threshold replies)")
	}
}

// TestFenceAndPromotionInstruments injects a promotion and then a deposed
// state-frame and a stale route-update, asserting the fence-rejection
// counters and the control-plane event trail record exactly those faults.
func TestFenceAndPromotionInstruments(t *testing.T) {
	before := obs.Default().Snapshot()
	evBase := obs.Events().Seq()

	node := core.NewInfiniteCoordinator(8)
	srv := NewCoordinatorServer(node)
	srv.SetRouteHash(func(key string) uint64 { return hashing.Murmur2String64(key, 1) })
	defer srv.Close()

	sc := NewMemSync(srv)
	defer sc.Close()
	if ack, err := sc.Promote(3); err != nil || ack != 3 {
		t.Fatalf("promote: ack=%d err=%v", ack, err)
	}
	// Deposed primary: epoch 1 < server epoch 3. The push is fenced.
	if ack, err := sc.SyncFrame(1, 0, 0, infiniteState(8)); err != nil || ack != 3 {
		t.Fatalf("deposed sync: ack=%d err=%v", ack, err)
	}
	// Move the route version to 5, then send a stale route-update at 2.
	if ack, err := sc.RouteUpdate(5, 0, 0); err != nil || ack != 5 {
		t.Fatalf("route-update: ack=%d err=%v", ack, err)
	}
	if ack, err := sc.RouteUpdate(2, 0, 0); err != nil || ack != 5 {
		t.Fatalf("stale route-update: ack=%d err=%v", ack, err)
	}

	after := obs.Default().Snapshot()
	delta := func(name string) uint64 { return after.Counter(name) - before.Counter(name) }
	if d := delta(`dds_wire_fence_rejections_total{fence="epoch"}`); d != 1 {
		t.Fatalf("epoch fence delta = %d, want 1", d)
	}
	if d := delta(`dds_wire_fence_rejections_total{fence="route"}`); d != 1 {
		t.Fatalf("route fence delta = %d, want 1", d)
	}
	if d := delta("dds_wire_promotions_total"); d != 1 {
		t.Fatalf("promotions delta = %d, want 1", d)
	}

	var sawPromotion, sawEpochFence, sawRouteFence bool
	for _, ev := range obs.Events().Since(evBase) {
		switch {
		case ev.Msg == "promotion accepted" && ev.Attrs["epoch"] == "3":
			sawPromotion = true
		case ev.Msg == "fence rejection" && ev.Attrs["fence"] == "epoch":
			sawEpochFence = true
		case ev.Msg == "fence rejection" && ev.Attrs["fence"] == "route":
			sawRouteFence = true
		}
	}
	if !sawPromotion || !sawEpochFence || !sawRouteFence {
		t.Fatalf("event trail incomplete: promotion=%v epochFence=%v routeFence=%v (events: %+v)",
			sawPromotion, sawEpochFence, sawRouteFence, obs.Events().Since(evBase))
	}
}

// TestFetchStateNotSnapshottableTyped pins the typed sentinel across the
// wire: every request that reads or replaces a node's full state — a
// state-frame push, a state-handoff, a snapshot fetch, a route-update prune
// — fails at a node without core.Snapshotter with an error wrapping
// ErrNotSnapshottable (detectable via errors.Is), not a silent drop. The
// server has a routing hash, so snapshot capability is the only reason left
// to refuse.
func TestFetchStateNotSnapshottableTyped(t *testing.T) {
	srv := NewCoordinatorServer(core.NewBroadcastCoordinator(1))
	srv.SetRouteHash(func(key string) uint64 { return hashing.Murmur2String64(key, 1) })
	defer srv.Close()
	for _, tc := range []struct {
		name string
		call func(*SyncClient) error
	}{
		{"state-frame", func(sc *SyncClient) error { _, err := sc.SyncFrame(0, 1, 0, infiniteState(1)); return err }},
		{"state-handoff", func(sc *SyncClient) error { _, err := sc.HandoffState(1, 0, 0, infiniteState(1)); return err }},
		{"snapshot", func(sc *SyncClient) error { _, _, _, err := sc.FetchState(); return err }},
		{"route-update", func(sc *SyncClient) error { _, err := sc.RouteUpdate(1, 0, 0); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewMemSync(srv)
			defer sc.Close()
			err := tc.call(sc)
			if err == nil {
				t.Fatalf("%s on a non-snapshottable node succeeded", tc.name)
			}
			if !errors.Is(err, ErrNotSnapshottable) {
				t.Fatalf("err = %v, want errors.Is(err, ErrNotSnapshottable)", err)
			}
		})
	}
}
