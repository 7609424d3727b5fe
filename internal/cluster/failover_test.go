package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/sliding"
	"repro/internal/stream"
	"repro/internal/wire"
)

// TestClusterFailoverMatchesReference is the replication subsystem's
// acceptance test: kill a shard primary mid-ingest with R = 1 warm replicas,
// let the site clients promote and replay, and require the final merged
// sample to be byte-identical to the centralized reference — for C in
// {1, 2, 4} shards, with one frame and with a deeper window in flight.
//
// The kill lands at the stream's midpoint after a quiesce (flush + forced
// state push): the paper's analysis makes replication exact only up to the
// bounded resync window — offers the dead primary acknowledged after its
// last sync are unrecoverable — so the test accounts for that window by
// closing it before pulling the trigger. Everything after the kill exercises
// the genuinely hard path: failure detection on live connections, epoch
// promotion raced by three independent sites, unacked-window replay, and
// continued routing. The bounded rows repeat the pipelined runs with sites
// that count their own offers (core.NewBoundedInfiniteSite), the
// shared-bound rows with one bound per client (core.NewSharedInfiniteSite),
// and the flood rows with sites that offer every arrival, so the kill lands
// on a wire carrying one offer per element.
func TestClusterFailoverMatchesReference(t *testing.T) {
	const (
		k    = 3
		s    = 24
		seed = 77
	)
	hasher := hashing.NewMurmur2(seed)
	elements := dataset.Uniform(6000, 1500, seed).Generate()
	arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))
	perSite := make([][]stream.Arrival, k)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}

	oracle := core.NewReference(s, hasher)
	oracle.ObserveAll(stream.Keys(elements))
	want, err := json.Marshal(oracle.Sample())
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 4} {
		for _, row := range []struct {
			opts                   wire.Options
			bounded, shared, flood bool
		}{
			{wire.Options{Codec: wire.CodecBinary, BatchSize: 16}, false, false, false},            // one frame in flight
			{wire.Options{Codec: wire.CodecBinary, BatchSize: 16, Window: 4}, false, false, false}, // pipelined
			{wire.Options{Codec: wire.CodecBinary, BatchSize: 16, Window: 4}, true, false, false},  // pipelined, bounded sites
			{wire.Options{Codec: wire.CodecBinary, BatchSize: 16, Window: 4}, true, true, false},   // pipelined, one bound per client
			{wire.Options{Codec: wire.CodecBinary, BatchSize: 16, Window: 4}, false, false, true},  // pipelined, every arrival offered
		} {
			opts := row.opts
			name := fmt.Sprintf("shards=%d window=%d", shards, opts.Window)
			switch {
			case row.flood:
				name += " flood"
			case row.shared:
				name += " shared bound"
			case row.bounded:
				name += " bounded"
			}
			srv, err := replica.Listen("127.0.0.1:0", shards, replica.Options{
				Replicas:     1,
				SyncInterval: 20 * time.Millisecond,
				Codec:        wire.CodecBinary,
			}, func(int, int) netsim.CoordinatorNode {
				return core.NewInfiniteCoordinator(s)
			})
			if err != nil {
				t.Fatal(err)
			}

			groups := srv.GroupAddrs()
			router := NewShardRouter(shards, hasher)
			clients := make([]*SiteClient, k)
			for site := 0; site < k; site++ {
				id := site
				bound := core.NewBound(s)
				clients[site], err = DialGroups(groups, router, func(int) netsim.SiteNode {
					switch {
					case row.flood:
						return &floodSite{id: id, hasher: hasher}
					case row.shared:
						return core.NewSharedInfiniteSite(id, hasher, bound)
					case row.bounded:
						return core.NewBoundedInfiniteSite(id, hasher, s)
					}
					return core.NewInfiniteSite(id, hasher)
				}, opts)
				if err != nil {
					t.Fatal(err)
				}
			}

			// ingestHalf drives every site concurrently over its half of the
			// stream — the deployment shape failover must survive.
			ingestHalf := func(half int) {
				t.Helper()
				var wg sync.WaitGroup
				errs := make(chan error, k)
				for site := 0; site < k; site++ {
					wg.Add(1)
					go func(site int) {
						defer wg.Done()
						mine := perSite[site]
						from, to := 0, len(mine)/2
						if half == 1 {
							from, to = len(mine)/2, len(mine)
						}
						for _, a := range mine[from:to] {
							if err := clients[site].Observe(a.Key, a.Slot); err != nil {
								errs <- err
								return
							}
						}
						errs <- clients[site].Flush()
					}(site)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}

			ingestHalf(0)
			// Quiesce the resync window, then kill shard 0's primary.
			if err := srv.SyncNow(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			killed, err := srv.KillPrimary(0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			promoteStart := time.Now()
			ingestHalf(1)

			// Every site talking to shard 0 must have failed over to the
			// replica, and promotion must not have taken longer than the
			// ingest of the second half allows (well under a sync interval of
			// actual stall; the stall counter isolates it from ingest time).
			failovers := 0
			for _, c := range clients {
				n, stall := c.Failovers()
				failovers += n
				if stall > time.Since(promoteStart) {
					t.Fatalf("%s: impossible failover stall %v", name, stall)
				}
			}
			if failovers < k {
				t.Fatalf("%s: %d failovers across %d sites; every site holds a connection to the killed shard", name, failovers, k)
			}
			if got := srv.PrimaryIndex(0); got != killed+1 {
				t.Fatalf("%s: shard 0 primary = %d after killing %d, want %d", name, got, killed, killed+1)
			}

			for site, c := range clients {
				clients[site] = nil
				if err := c.Close(); err != nil {
					t.Fatalf("%s: close: %v", name, err)
				}
			}

			// The merged sample over the surviving primaries is byte-identical
			// to the centralized oracle.
			shardSamples, err := srv.PrimarySamples()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := json.Marshal(Merge(s, shardSamples...))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: merged sample after failover differs from reference\n got: %s\nwant: %s", name, got, want)
			}
			// The remote group query agrees.
			queried, err := QueryGroups(groups, s, wire.CodecBinary)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err = json.Marshal(queried)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: queried merged sample after failover differs from reference", name)
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("%s: server close: %v", name, err)
			}
		}
	}
}

// TestFailoverReplaysUnackedWindow pins down the replay path specifically: a
// pipelined site with a deep window floods one shard, the primary dies with
// batches in flight (no quiesce for the in-flight tail — they are unacked,
// so replay must recover them), and the promoted replica must end up with
// the exact reference sample.
func TestFailoverReplaysUnackedWindow(t *testing.T) {
	const (
		s     = 16
		total = 4000
		seed  = 13
	)
	hasher := hashing.NewMurmur2(seed)
	srv, err := replica.Listen("127.0.0.1:0", 1, replica.Options{
		Replicas:     1,
		SyncInterval: time.Hour, // only explicit syncs: the replica starts cold
		Codec:        wire.CodecBinary,
	}, func(int, int) netsim.CoordinatorNode {
		return core.NewInfiniteCoordinator(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	router := NewShardRouter(1, hasher)
	client, err := DialGroups(srv.GroupAddrs(), router, func(int) netsim.SiteNode {
		return core.NewInfiniteSite(0, hasher)
	}, wire.Options{Codec: wire.CodecBinary, BatchSize: 8, Window: 8})
	if err != nil {
		t.Fatal(err)
	}

	keys := make([]string, total)
	for i := range keys {
		keys[i] = fmt.Sprintf("replay-%d", i)
	}
	oracle := core.NewReference(s, hasher)

	half := total / 2
	for i := 0; i < half; i++ {
		oracle.Observe(keys[i])
		if err := client.Observe(keys[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := srv.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.KillPrimary(0); err != nil {
		t.Fatal(err)
	}
	// Keep streaming through the kill: some of these offers are buffered or
	// in flight when the failure surfaces, and must be replayed — losing any
	// would dent the sample with probability ~1 across the run.
	for i := half; i < total; i++ {
		oracle.Observe(keys[i])
		if err := client.Observe(keys[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if n, _ := client.Failovers(); n != 1 {
		t.Fatalf("failovers = %d, want exactly 1", n)
	}

	shardSamples, err := srv.PrimarySamples()
	if err != nil {
		t.Fatal(err)
	}
	merged := Merge(s, shardSamples...)
	if !oracle.SameSample(merged) {
		t.Fatalf("promoted replica's sample misses replayed offers:\n got %d entries %v", len(merged), merged)
	}

	failoverReplaysUnackedSharedWindow(t)
}

// failoverReplaysUnackedSharedWindow is TestFailoverReplaysUnackedWindow's
// shared-candidate row: one pipelined sliding-window client whose two shard
// sites share a candidate streams through the death of shard 0's primary,
// so the offers it sends there after the kill are unacknowledged when the
// failure surfaces. The sites counted those offers as sent the moment they
// made them, so replay must deliver them: at every slot boundary after the
// kill, the window read as of that slot is the brute-force window minimum.
func failoverReplaysUnackedSharedWindow(t *testing.T) {
	const (
		total   = 4000
		perSlot = 40
		window  = 5
		seed    = 13
	)
	hasher := hashing.NewMurmur2(seed)
	srv, err := replica.Listen("127.0.0.1:0", 2, replica.Options{
		Replicas:     1,
		SyncInterval: time.Hour, // only explicit syncs
		Codec:        wire.CodecBinary,
	}, func(int, int) netsim.CoordinatorNode {
		return sliding.NewCoordinator()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	newSite := sharedCandidates(1, hasher, window)
	client, err := DialGroups(srv.GroupAddrs(), NewShardRouter(2, hasher), func(shard int) netsim.SiteNode {
		return newSite(0, shard)
	}, wire.Options{Codec: wire.CodecBinary, BatchSize: 8, Window: 8})
	if err != nil {
		t.Fatal(err)
	}

	lastArrival := make(map[string]int64)
	ingest := func(from, to int, check bool) {
		t.Helper()
		for i := from; i < to; i++ {
			key, slot := fmt.Sprintf("replay-%d", i%1500), int64(i/perSlot)
			lastArrival[key] = slot
			if err := client.Observe(key, slot); err != nil {
				t.Fatal(err)
			}
			if (i+1)%perSlot != 0 {
				continue
			}
			if err := client.EndSlot(slot); err != nil {
				t.Fatal(err)
			}
			if !check {
				continue
			}
			want := ""
			for key, at := range lastArrival {
				if at > slot-window && (want == "" || hasher.Unit(key) < hasher.Unit(want)) {
					want = key
				}
			}
			got, err := QueryWindowGroups(srv.GroupAddrs(), slot, wire.CodecBinary)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0].Key != want || got[0].Expiry < slot {
				t.Fatalf("shared window slot %d: window sample %+v, want %q", slot, got, want)
			}
		}
	}
	ingest(0, total/2, false)
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := srv.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.KillPrimary(0); err != nil {
		t.Fatal(err)
	}
	ingest(total/2, total, true)
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if n, _ := client.Failovers(); n != 1 {
		t.Fatalf("shared window: failovers = %d, want exactly 1", n)
	}
}

// TestReconnectToHealthyPrimary covers the connection-reset path: the
// primary stays alive but the site's TCP connection dies (idle timeout,
// middlebox reset). The client must re-dial the same primary and replay its
// unacked window — no promotion — and ingest must continue exactly.
func TestReconnectToHealthyPrimary(t *testing.T) {
	const s = 8
	hasher := hashing.NewMurmur2(21)
	srv, err := replica.Listen("127.0.0.1:0", 1, replica.Options{
		Replicas:     1,
		SyncInterval: time.Hour,
		Codec:        wire.CodecBinary,
	}, func(int, int) netsim.CoordinatorNode {
		return core.NewInfiniteCoordinator(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := DialGroups(srv.GroupAddrs(), NewShardRouter(1, hasher), func(int) netsim.SiteNode {
		return core.NewInfiniteSite(0, hasher)
	}, wire.Options{Codec: wire.CodecBinary, BatchSize: 8, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewReference(s, hasher)
	observe := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			key := fmt.Sprintf("reset-%d", i)
			oracle.Observe(key)
			if err := client.Observe(key, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	observe(0, 500)
	// Sever only the connection; the server never notices a problem.
	if err := client.shards[0].client.Abort(); err != nil {
		t.Fatal(err)
	}
	observe(500, 1000)
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if n, _ := client.Failovers(); n != 0 {
		t.Fatalf("a healthy-primary reset performed %d promotions, want 0", n)
	}
	if got := srv.PrimaryIndex(0); got != 0 {
		t.Fatalf("primary moved to member %d after a mere connection reset", got)
	}
	samples, err := srv.PrimarySamples()
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.SameSample(Merge(s, samples...)) {
		t.Fatal("sample after reconnect differs from the reference")
	}
}

// TestDialGroupsJoinsMidOutage covers the fresh-site path: the primary is
// already dead and nobody has promoted yet when a new site dials in. The
// initial dial must run the same failover walk established sites use —
// promote the replica, connect, ingest — instead of failing the join.
func TestDialGroupsJoinsMidOutage(t *testing.T) {
	const s = 8
	hasher := hashing.NewMurmur2(3)
	srv, err := replica.Listen("127.0.0.1:0", 1, replica.Options{
		Replicas:     1,
		SyncInterval: time.Hour,
		Codec:        wire.CodecBinary,
	}, func(int, int) netsim.CoordinatorNode {
		return core.NewInfiniteCoordinator(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.KillPrimary(0); err != nil {
		t.Fatal(err)
	}

	client, err := DialGroups(srv.GroupAddrs(), NewShardRouter(1, hasher), func(int) netsim.SiteNode {
		return core.NewInfiniteSite(0, hasher)
	}, wire.Options{Codec: wire.CodecBinary, BatchSize: 4})
	if err != nil {
		t.Fatalf("joining a group mid-outage failed: %v", err)
	}
	oracle := core.NewReference(s, hasher)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("join-%d", i)
		oracle.Observe(key)
		if err := client.Observe(key, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.PrimaryIndex(0); got != 1 {
		t.Fatalf("joining site promoted member %d, want 1", got)
	}
	samples, err := srv.PrimarySamples()
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.SameSample(Merge(s, samples...)) {
		t.Fatal("sample ingested through a mid-outage join differs from the reference")
	}
}

// TestRecoveryNeverDialsAfterClose: an operation on a closed client fails
// against its closed connections, and recovery gives up with an error
// wrapping net.ErrClosed instead of re-dialing the healthy primary (which
// would open a connection nobody ever closes).
func TestRecoveryNeverDialsAfterClose(t *testing.T) {
	const s = 8
	h := hashing.NewMurmur2(4)
	hellos := func() uint64 {
		snap := obs.Default().Snapshot()
		return snap.Counter(`dds_wire_frames_decoded_total{kind="hello"}`)
	}
	for _, opts := range digestOpts {
		t.Run(fmt.Sprintf("%s-batch%d-window%d", opts.Codec, opts.BatchSize, opts.Window), func(t *testing.T) {
			srv := listenFor(t, 2, s, false)
			client, err := DialSites(srv.Addrs(), NewShardRouter(2, h), func(int) netsim.SiteNode {
				return core.NewInfiniteSite(0, h)
			}, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				if err := client.Observe(fmt.Sprintf("key-%d", i), 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := client.Close(); err != nil {
				t.Fatal(err)
			}
			before := hellos()
			// A batched client buffers an arrival without I/O, so not every
			// Observe fails; every one that does must say closed.
			for i := 0; i < 300; i++ {
				if err := client.Observe(fmt.Sprintf("late-%d", i), 0); err != nil && !errors.Is(err, net.ErrClosed) {
					t.Fatalf("Observe after Close: %v, want an error wrapping net.ErrClosed", err)
				}
			}
			if err := client.Flush(); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("Flush after Close: %v, want an error wrapping net.ErrClosed", err)
			}
			if d := hellos() - before; d != 0 {
				t.Fatalf("%d hello frames after Close: recovery re-dialed a shard", d)
			}
		})
	}
}
