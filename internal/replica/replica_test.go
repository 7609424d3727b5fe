package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// newGroupServer starts one shard with R replicas and a sync loop slow
// enough that tests control every push via SyncNow.
func newGroupServer(t *testing.T, shards, replicas, sampleSize int) *Server {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", shards, Options{
		Replicas:     replicas,
		SyncInterval: time.Hour, // ticker effectively off; tests call SyncNow
		Codec:        wire.CodecBinary,
	}, func(int, int) netsim.CoordinatorNode {
		return core.NewInfiniteCoordinator(sampleSize)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

// mustJSON marshals a sample for byte-identity comparison.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplicaCatchesUpInOneFrame is the package's core claim: after any
// amount of primary ingest, a single sync round makes every replica's sample
// byte-identical to the primary's — replicas rebuild from one sketch frame,
// not from a log.
func TestReplicaCatchesUpInOneFrame(t *testing.T) {
	const s = 16
	srv := newGroupServer(t, 1, 2, s)
	hasher := hashing.NewMurmur2(5)

	// Ingest a few thousand keys into the primary only.
	site := core.NewInfiniteSite(0, hasher)
	client, err := wire.DialSiteOptions(site, srv.GroupAddrs()[0][0], wire.Options{Codec: wire.CodecBinary, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := client.Observe(string(rune('a'+i%26))+string(rune('0'+i%10))+string(rune(i)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	want := mustJSON(t, srv.MemberSample(0, 0))
	if len(srv.MemberSample(0, 1)) != 0 || len(srv.MemberSample(0, 2)) != 0 {
		t.Fatal("replicas have state before any sync")
	}
	if err := srv.SyncNow(); err != nil {
		t.Fatal(err)
	}
	for m := 1; m <= 2; m++ {
		if got := mustJSON(t, srv.MemberSample(0, m)); !bytes.Equal(got, want) {
			t.Fatalf("replica %d differs from primary after one sync:\n got: %s\nwant: %s", m, got, want)
		}
	}
}

// TestSyncSkipsIdlePrimary checks the change-detection: ticker-driven rounds
// push nothing while the primary is idle (SyncNow always pushes).
func TestSyncSkipsIdlePrimary(t *testing.T) {
	srv := newGroupServer(t, 1, 1, 8)
	g := srv.groups[0]
	if err := g.syncRound(Options{Codec: wire.CodecBinary}, false); err != nil {
		t.Fatal(err)
	}
	seqAfterFirst := g.seq
	// No ingest happened: further unforced rounds are skipped.
	for i := 0; i < 3; i++ {
		if err := g.syncRound(Options{Codec: wire.CodecBinary}, false); err != nil {
			t.Fatal(err)
		}
	}
	if g.seq != seqAfterFirst {
		t.Fatalf("idle rounds pushed syncs: seq went %d -> %d", seqAfterFirst, g.seq)
	}
	if err := srv.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if g.seq == seqAfterFirst {
		t.Fatal("SyncNow did not force a push")
	}
}

// countingSampler counts the state captures of the coordinator it wraps.
type countingSampler struct {
	*core.InfiniteCoordinator
	snapshots atomic.Int64
}

func (c *countingSampler) Snapshot() core.State {
	c.snapshots.Add(1)
	return c.InfiniteCoordinator.Snapshot()
}

// TestSkippedRoundsCaptureNoState checks that an idle primary's skipped sync
// and spool rounds decide from the activity count and epoch alone: they
// take no snapshot of the primary's state. Rounds after ingest, and forced
// rounds, still capture it.
func TestSkippedRoundsCaptureNoState(t *testing.T) {
	spool, err := durable.Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var primary *countingSampler
	opts := Options{Replicas: 1, SyncInterval: time.Hour, SpoolInterval: time.Hour, Spool: spool}
	srv, err := Listen("127.0.0.1:0", 1, opts, func(_, member int) netsim.CoordinatorNode {
		node := &countingSampler{InfiniteCoordinator: core.NewInfiniteCoordinator(8)}
		if member == 0 {
			primary = node
		}
		return node
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	g := srv.groups[0]
	rounds := func(n int) int64 {
		t.Helper()
		before := primary.snapshots.Load()
		for i := 0; i < n; i++ {
			if err := g.syncRound(srv.opts, false); err != nil {
				t.Fatal(err)
			}
			if err := srv.spoolGroup(g, false); err != nil {
				t.Fatal(err)
			}
		}
		return primary.snapshots.Load() - before
	}

	if got := rounds(1); got != 2 {
		t.Fatalf("first sync and spool rounds took %d snapshots, want 2", got)
	}
	if got := rounds(3); got != 0 {
		t.Fatalf("skipped rounds on an idle primary took %d snapshots, want 0", got)
	}
	client, err := wire.DialSiteOptions(core.NewInfiniteSite(0, hashing.NewMurmur2(3)), srv.GroupAddrs()[0][0],
		wire.Options{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := client.Observe(string(rune('a'+i%26))+string(rune('0'+i%10)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rounds(3); got != 2 {
		t.Fatalf("rounds after ingest took %d snapshots, want 2 (one sync, one spool)", got)
	}
	before := primary.snapshots.Load()
	if err := srv.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if err := srv.SpoolNow(); err != nil {
		t.Fatal(err)
	}
	if got := primary.snapshots.Load() - before; got != 2 {
		t.Fatalf("forced rounds took %d snapshots, want 2", got)
	}
}

// TestKillAndPromote walks a full failover at the group level: kill the
// primary, promote the next member the way a failing-over site would, and
// check that the group reports the new primary and keeps syncing from it.
func TestKillAndPromote(t *testing.T) {
	srv := newGroupServer(t, 1, 2, 8)
	addrs := srv.GroupAddrs()[0]

	// Seed the primary with a little state and replicate it.
	sc, err := wire.DialSync(addrs[0], wire.CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if srv.PrimaryIndex(0) != 0 {
		t.Fatalf("initial primary = %d, want 0", srv.PrimaryIndex(0))
	}

	killed, err := srv.KillPrimary(0)
	if err != nil || killed != 0 {
		t.Fatalf("KillPrimary = (%d, %v)", killed, err)
	}
	// A dead member is dead: probes fail.
	if _, err := wire.ProbeEpoch(addrs[0], wire.CodecBinary); err == nil {
		t.Fatal("probe of the killed primary should fail")
	}
	// Deterministic promotion: next member, epoch = its index.
	if epoch, err := wire.PromoteAddr(addrs[1], 1, wire.CodecBinary); err != nil || epoch != 1 {
		t.Fatalf("promote member 1 = (%d, %v)", epoch, err)
	}
	if got := srv.PrimaryIndex(0); got != 1 {
		t.Fatalf("primary after promotion = %d, want 1", got)
	}
	// The sync loop now pushes from member 1 to member 2 (member 0 is dead
	// and skipped).
	if err := srv.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if got, want := srv.Epochs(0), []uint64{0, 1, 1}; len(got) != 3 || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("epochs after promoted sync = %v, want member 1 and 2 at epoch 1", got)
	}
	// Promotion is idempotent: a second site promoting the same member is a
	// no-op, and the primary does not flap.
	if epoch, err := wire.PromoteAddr(addrs[1], 1, wire.CodecBinary); err != nil || epoch != 1 {
		t.Fatalf("re-promote member 1 = (%d, %v)", epoch, err)
	}
	if got := srv.PrimaryIndex(0); got != 1 {
		t.Fatalf("primary flapped to %d after idempotent re-promotion", got)
	}
}

// flakyConn drops WriteFrames while its shared countdown is positive —
// shared across redials, so a retry budget is consumed honestly.
type flakyConn struct {
	wire.FrameConn
	drops *atomic.Int64
}

func (f flakyConn) WriteFrame(fr *wire.Frame) error {
	if f.drops.Add(-1) >= 0 {
		return errors.New("flaky: injected write loss")
	}
	return f.FrameConn.WriteFrame(fr)
}

// TestSyncNowRetriesTransientLosses pins SyncNow's internal retry: a burst
// of frame losses on the sync link no longer surfaces to the caller — the
// forced round retries until one completes — while a link that never
// delivers exhausts the bounded budget with an error wrapping
// ErrSyncUnhealthy. (Callers previously had to hand-roll this loop; the
// partition chaos test's was removed when the retry moved here.)
func TestSyncNowRetriesTransientLosses(t *testing.T) {
	var drops atomic.Int64
	srv, err := Listen("127.0.0.1:0", 1, Options{
		Replicas:     1,
		SyncInterval: time.Hour, // ticker effectively off; the test drives SyncNow
		Codec:        wire.CodecBinary,
		SyncWrap: func(c wire.FrameConn) wire.FrameConn {
			return flakyConn{FrameConn: c, drops: &drops}
		},
	}, func(int, int) netsim.CoordinatorNode {
		return core.NewInfiniteCoordinator(8)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A transient burst: fewer losses than the retry budget can absorb.
	drops.Store(5)
	if err := srv.SyncNow(); err != nil {
		t.Fatalf("SyncNow did not absorb a transient loss burst: %v", err)
	}

	// A dead link: every attempt loses its frame; the budget exhausts with
	// the typed error, not a hang.
	drops.Store(1 << 40)
	err = srv.SyncNow()
	if err == nil {
		t.Fatal("SyncNow succeeded over a link that delivers nothing")
	}
	if !errors.Is(err, ErrSyncUnhealthy) {
		t.Fatalf("err = %v, want errors.Is(err, ErrSyncUnhealthy)", err)
	}

	// Healed link: the server recovers with no caller-side intervention.
	drops.Store(0)
	if err := srv.SyncNow(); err != nil {
		t.Fatalf("SyncNow after heal: %v", err)
	}
}
