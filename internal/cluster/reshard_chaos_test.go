package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/replica"
	"repro/internal/stream"
	"repro/internal/wire"
)

// TestReshardChaosMatchesReference is the resharding subsystem's acceptance
// test: drive k concurrent sites through a scripted-random sequence of
// online shard splits, merges, and one primary kill, for initial shard
// counts C in {1, 2, 4} under both one-frame and pipelined batched binary
// ingest, and require the merged cluster sample to be byte-identical to the
// centralized reference after every step.
//
// The stream is cut into chunks. Reshard plans run *concurrently* with a
// chunk's ingest — sites flip their routing tables cooperatively at
// operation boundaries while offers stream — which is the online claim under
// test. The one kill runs between chunks after a quiesce (flush + forced
// state push), matching the failover test's accounting of the bounded
// resync window: replication is exact up to that window by design, and the
// kill's job here is to prove resharding composes with failover, not to
// re-measure the window.
//
// Every schedule is deterministic in (C, window) via a seeded RNG, so a
// failure names a reproducible script. The bounded rows run the pipelined
// schedules with sites that count their own offers
// (core.NewBoundedInfiniteSite), and the shared-bound rows with one bound per
// client across all its shard sites, including those a split adds
// (core.NewSharedInfiniteSite). The flood rows offer every arrival, so
// cutovers and the kill land on a wire carrying one offer per element. Every
// row's merged sample must stay exact across splits, merges and the kill.
func TestReshardChaosMatchesReference(t *testing.T) {
	const (
		k        = 3
		s        = 24
		seed     = 20130501
		elements = 6000
		distinct = 1500
		chunks   = 6
	)
	hasher := hashing.NewMurmur2(seed)
	all := dataset.Uniform(elements, distinct, seed).Generate()
	arrivals := distribute.Apply(all, distribute.NewRandom(k, seed))
	perSite := make([][]stream.Arrival, k)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}
	chunkOf := func(site, chunk int) []stream.Arrival {
		mine := perSite[site]
		return mine[chunk*len(mine)/chunks : (chunk+1)*len(mine)/chunks]
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
			rng := rand.New(rand.NewSource(seed + int64(shards)*100 + int64(opts.Window)))
			router := NewShardRouter(shards, hasher)
			srv, err := replica.Listen("127.0.0.1:0", shards, replica.Options{
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

			rs := NewResharder(srv, router.Table(), wire.CodecBinary)
			groups := srv.GroupAddrs()
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
					t.Fatalf("%s: %v", name, err)
				}
			}
			rs.Register(clients...)

			oracle := core.NewReference(s, hasher)
			killChunk := 1 + rng.Intn(chunks-1)
			splits, merges := 0, 0

			for chunk := 0; chunk < chunks; chunk++ {
				if chunk == killChunk {
					// Quiesce, then kill a random live shard's primary. The
					// sites detect it on their next offer to that shard,
					// promote the replica, and replay their unacked windows.
					for _, c := range clients {
						if err := c.Flush(); err != nil {
							t.Fatalf("%s chunk %d: quiesce flush: %v", name, chunk, err)
						}
					}
					if err := srv.SyncNow(); err != nil {
						t.Fatalf("%s chunk %d: quiesce sync: %v", name, chunk, err)
					}
					table := rs.Table()
					victim := table.Slots[rng.Intn(table.NumRanges())]
					if _, err := srv.KillPrimary(victim); err != nil {
						t.Fatalf("%s chunk %d: kill shard %d: %v", name, chunk, victim, err)
					}
				}

				// Ingest the chunk concurrently across sites. After its slice
				// each site keeps pumping (apply + flush) until the chunk's
				// concurrent reshard plan — if any — has fully settled, so a
				// cutover can never stall on a site that finished early.
				opDone := make(chan struct{})
				errs := make(chan error, k)
				var wg sync.WaitGroup
				for site := 0; site < k; site++ {
					wg.Add(1)
					go func(site int) {
						defer wg.Done()
						for _, a := range chunkOf(site, chunk) {
							if err := clients[site].Observe(a.Key, a.Slot); err != nil {
								errs <- fmt.Errorf("site %d: %w", site, err)
								return
							}
						}
						if err := clients[site].Flush(); err != nil {
							errs <- fmt.Errorf("site %d: flush: %w", site, err)
							return
						}
						for {
							select {
							case <-opDone:
								errs <- clients[site].ApplyRouteUpdates()
								return
							default:
								if err := clients[site].ApplyRouteUpdates(); err != nil {
									errs <- fmt.Errorf("site %d: apply: %w", site, err)
									return
								}
								time.Sleep(500 * time.Microsecond)
							}
						}
					}(site)
				}

				// The scripted plan for this chunk, concurrent with ingest.
				if chunk > 0 && chunk != killChunk {
					table := rs.Table()
					if table.NumRanges() > 1 && rng.Intn(2) == 0 {
						idx := rng.Intn(table.NumRanges() - 1)
						if _, err := rs.MergeAt(idx); err != nil {
							close(opDone)
							wg.Wait()
							t.Fatalf("%s chunk %d: merge at range %d: %v", name, chunk, idx, err)
						}
						merges++
					} else {
						slot := table.Slots[rng.Intn(table.NumRanges())]
						mid, err := table.SplitPoint(slot, 0.25+0.5*rng.Float64())
						if err != nil {
							close(opDone)
							wg.Wait()
							t.Fatal(err)
						}
						if _, err := rs.Split(slot, mid); err != nil {
							close(opDone)
							wg.Wait()
							t.Fatalf("%s chunk %d: split slot %d at %#x: %v", name, chunk, slot, mid, err)
						}
						splits++
					}
				}
				close(opDone)
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						t.Fatalf("%s chunk %d: %v", name, chunk, err)
					}
				}

				// The invariant: after every chunk (and therefore after every
				// reshard step and the kill), the merged sample over the live
				// shard primaries is byte-identical to the centralized
				// reference over the stream prefix ingested so far.
				for site := 0; site < k; site++ {
					oracle.ObserveAll(stream.Keys(arrivalElements(chunkOf(site, chunk))))
				}
				want, err := json.Marshal(oracle.Sample())
				if err != nil {
					t.Fatal(err)
				}
				samples, err := srv.PrimarySamples()
				if err != nil {
					t.Fatalf("%s chunk %d: %v", name, chunk, err)
				}
				got, err := json.Marshal(Merge(s, samples...))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s chunk %d (v%d, %d ranges): merged sample diverged from reference\n got: %s\nwant: %s",
						name, chunk, rs.Table().Version, rs.Table().NumRanges(), got, want)
				}
				if err := rs.Table().Validate(); err != nil {
					t.Fatalf("%s chunk %d: %v", name, chunk, err)
				}
			}

			if splits+merges < chunks-2 {
				t.Fatalf("%s: schedule ran %d splits and %d merges; the chaos never resharded", name, splits, merges)
			}
			// The remote query path agrees, across retired slots and all.
			want, _ := json.Marshal(oracle.Sample())
			queried, err := QueryGroups(srv.GroupAddrs(), s, wire.CodecBinary)
			if err != nil {
				t.Fatalf("%s: query groups: %v", name, err)
			}
			got, _ := json.Marshal(queried)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: queried merged sample diverged from reference after chaos", name)
			}
			for site, c := range clients {
				clients[site] = nil
				if err := c.Close(); err != nil {
					t.Fatalf("%s: close: %v", name, err)
				}
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("%s: server close: %v", name, err)
			}
		}
	}
}

// arrivalElements projects arrivals back to elements for oracle feeding.
func arrivalElements(arrivals []stream.Arrival) []stream.Element {
	out := make([]stream.Element, len(arrivals))
	for i, a := range arrivals {
		out[i] = stream.Element{Key: a.Key, Slot: a.Slot}
	}
	return out
}

// runPlanPumping executes a reshard plan in the background while pumping
// ApplyRouteUpdates on the (otherwise idle) clients from their owning
// goroutine — cutovers are cooperative, so an idle client must keep showing
// up at an operation boundary for the plan to complete. Ingesting clients do
// this for free; idle ones need the pump.
func runPlanPumping(t *testing.T, clients []*SiteClient, plan func() (*ReshardReport, error)) *ReshardReport {
	t.Helper()
	type result struct {
		rep *ReshardReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := plan()
		done <- result{rep, err}
	}()
	for {
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatal(r.err)
			}
			return r.rep
		default:
			for _, c := range clients {
				if err := c.ApplyRouteUpdates(); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// TestSplitNonSnapshotDonorTyped pins the handoff's one path: a donor whose
// coordinator lacks Snapshot/Restore (possible only in an unreplicated
// group) fails a split's warm handoff with an error wrapping
// wire.ErrNotSnapshottable — there is no flat-sample fallback — and the
// plan stops before any site is cut over.
func TestSplitNonSnapshotDonorTyped(t *testing.T) {
	hasher := hashing.NewMurmur2(17)
	router := NewShardRouter(1, hasher)
	srv, err := replica.Listen("127.0.0.1:0", 1, replica.Options{
		Codec:     wire.CodecBinary,
		RouteHash: router.RouteHash,
	}, func(slot, _ int) netsim.CoordinatorNode {
		if slot == 0 {
			return core.NewBroadcastCoordinator(4) // the donor
		}
		return core.NewInfiniteCoordinator(4)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rs := NewResharder(srv, router.Table(), wire.CodecBinary)
	mid, err := rs.Table().SplitPoint(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Split(0, mid); !errors.Is(err, wire.ErrNotSnapshottable) {
		t.Fatalf("split of a non-snapshot donor: err = %v, want errors.Is(err, wire.ErrNotSnapshottable)", err)
	}
	if v := rs.Table().Version; v != router.Table().Version {
		t.Fatalf("failed split moved the route table to version %d", v)
	}
}

// TestReshardSplitAndMergeExact pins the two plan shapes individually, with
// deterministic before/after assertions that are easier to debug than the
// chaos script: a mid-ingest split must leave both successors owning only
// their range (and the merged sample exact), and merging them back must
// leave one shard holding the reunited range (and the merged sample still
// exact).
func TestReshardSplitAndMergeExact(t *testing.T) {
	const (
		s     = 16
		total = 3000
		seed  = 4242
	)
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

	client, err := DialGroups(srv.GroupAddrs(), router, func(int) netsim.SiteNode {
		return core.NewInfiniteSite(0, hasher)
	}, wire.Options{Codec: wire.CodecBinary, BatchSize: 8, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	rs := NewResharder(srv, router.Table(), wire.CodecBinary)
	rs.Register(client)

	oracle := core.NewReference(s, hasher)
	observe := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			key := fmt.Sprintf("exact-%d", i)
			oracle.Observe(key)
			if err := client.Observe(key, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := client.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	checkExact := func(label string) {
		t.Helper()
		samples, err := srv.PrimarySamples()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !oracle.SameSample(Merge(s, samples...)) {
			t.Fatalf("%s: merged sample diverged from reference", label)
		}
	}

	observe(0, total/2)
	mid, err := rs.Table().SplitPoint(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rep := runPlanPumping(t, []*SiteClient{client}, func() (*ReshardReport, error) {
		return rs.Split(0, mid)
	})
	if rep.Successor != 1 || rep.Version != 2 {
		t.Fatalf("split report: %+v", rep)
	}
	// The report times the plan, and the cutover stall is part of it.
	if rep.CutoverStall <= 0 || rep.Total < rep.CutoverStall {
		t.Fatalf("split report times: cutover stall %v, total %v; want 0 < stall <= total", rep.CutoverStall, rep.Total)
	}
	if got := client.RouteVersion(); got != 2 {
		t.Fatalf("client route version after split = %d, want 2", got)
	}
	observe(total/2, total)
	checkExact("after split")

	// Each successor holds only keys hashing into its range.
	for slot := 0; slot <= 1; slot++ {
		lo, hi, ok := rs.Table().RangeOf(slot)
		if !ok {
			t.Fatalf("slot %d lost its range", slot)
		}
		for _, e := range srv.MemberSample(slot, srv.PrimaryIndex(slot)) {
			rh := router.RouteHash(e.Key)
			if rh < lo || (hi != 0 && rh >= hi) {
				t.Fatalf("slot %d holds out-of-range key %q (hash %#x not in [%#x, %#x))", slot, e.Key, rh, lo, hi)
			}
		}
	}
	stalls, _ := client.ReshardStalls()
	if stalls != 1 {
		t.Fatalf("client applied %d route updates, want 1", stalls)
	}

	// A site joining AFTER the split must adopt the live (non-uniform)
	// partition — the ddsnode -admin path: explicit table + slot-indexed
	// groups, dialing only routed slots.
	lateRouter, err := NewRangeRouter(rs.Table(), hasher)
	if err != nil {
		t.Fatal(err)
	}
	late, err := DialGroups(srv.GroupAddrs(), lateRouter, func(int) netsim.SiteNode {
		return core.NewInfiniteSite(1, hasher)
	}, wire.Options{Codec: wire.CodecBinary, BatchSize: 8})
	if err != nil {
		t.Fatalf("late join after split: %v", err)
	}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("late-%d", i)
		oracle.Observe(key)
		if err := late.Observe(key, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := late.Close(); err != nil {
		t.Fatal(err)
	}
	checkExact("after late join ingest")

	// Merge the ranges back; the absorbed shard's group retires.
	rep = runPlanPumping(t, []*SiteClient{client}, func() (*ReshardReport, error) {
		return rs.MergeAt(0)
	})
	if rep.Donor != 1 || rep.Successor != 0 || rep.Version != 3 {
		t.Fatalf("merge report: %+v", rep)
	}
	checkExact("after merge")
	if addrs := srv.GroupAddrs(); addrs[1] != nil {
		t.Fatalf("retired slot 1 still lists addresses %v", addrs[1])
	}
	if n := rs.Table().NumRanges(); n != 1 {
		t.Fatalf("table has %d ranges after merge, want 1", n)
	}
	// Ingest continues against the reunited shard.
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("post-merge-%d", i)
		oracle.Observe(key)
		if err := client.Observe(key, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	checkExact("after post-merge ingest")
}
