package wire

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sliding"
)

// TestStateFrameSyncSlidingCoordinator proves the state frame replicates a
// sliding-window coordinator — candidate store, current candidate, and slot
// clock — in one frame, with the same epoch fencing semantics as the
// bottom-s sampler.
func TestStateFrameSyncSlidingCoordinator(t *testing.T) {
	primary := sliding.NewCoordinator()
	for i, key := range []string{"aa", "bb", "cc", "dd"} {
		primary.Offer(core.Offer{Key: key, Hash: float64(i+1) / 10, Slot: int64(i), Expiry: int64(i) + 20})
	}
	encoded := core.EncodeState(primary.Snapshot())

	replicaNode := sliding.NewCoordinator()
	srv := NewCoordinatorServer(replicaNode)
	sc := NewMemSync(srv)
	defer sc.Close()
	defer srv.Close()

	ack, err := sc.SyncFrame(0, 1, 3, encoded)
	if err != nil {
		t.Fatal(err)
	}
	if ack != 0 {
		t.Fatalf("ack epoch %d, want 0", ack)
	}
	if got := core.EncodeState(replicaNode.Snapshot()); string(got) != string(encoded) {
		t.Fatalf("replica state not byte-identical after one state frame\n got: %x\nwant: %x", got, encoded)
	}

	// Promote the replica past epoch 1; a deposed primary's frame is fenced.
	if _, err := sc.Promote(2); err != nil {
		t.Fatal(err)
	}
	stale := sliding.NewCoordinator()
	stale.Offer(core.Offer{Key: "stale", Hash: 0.001, Expiry: 99})
	ack, err = sc.SyncFrame(1, 2, 4, core.EncodeState(stale.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if ack != 2 {
		t.Fatalf("fenced ack epoch %d, want 2", ack)
	}
	if replicaNode.StoreLen() != 4 {
		t.Fatalf("fenced frame was applied: store has %d tuples, want 4", replicaNode.StoreLen())
	}

	// FetchState round-trips the replica's state back out.
	st, epoch, slot, err := sc.FetchState()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || slot != 3 {
		t.Fatalf("fetched epoch/slot = %d/%d, want 2/3", epoch, slot)
	}
	if string(core.EncodeState(st)) != string(encoded) {
		t.Fatal("fetched state not byte-identical to the synced one")
	}
}

// TestFenceSentinels pins that the typed fence errors survive wrapping, so
// dds (and any other caller) can detect fences with errors.Is.
func TestFenceSentinels(t *testing.T) {
	if !errors.Is(fmt.Errorf("replica: shard 3 sync to 1.2.3.4: %w", ErrDeposed), ErrDeposed) {
		t.Fatal("wrapped ErrDeposed not detected by errors.Is")
	}
	if !errors.Is(fmt.Errorf("cluster: handoff to slot 2: %w", ErrStaleRoute), ErrStaleRoute) {
		t.Fatal("wrapped ErrStaleRoute not detected by errors.Is")
	}
}
