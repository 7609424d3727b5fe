package dds_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/dds"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/wire"
)

// TestPublicAPIInfiniteLifecycle drives the whole public surface end to end
// in whole-stream mode: serve a replicated cluster, ingest through a
// pipelined client, kill a primary mid-ingest, split a shard live, merge it
// back, and require the queried sample to match the centralized reference
// through all of it. Snapshot and Estimate are exercised along the way.
func TestPublicAPIInfiniteLifecycle(t *testing.T) {
	const (
		sampleSize = 16
		seed       = 20130501
	)
	ctx := context.Background()
	cl, err := dds.Serve(ctx, dds.Config{Listen: "127.0.0.1:0", Shards: 2, SampleSize: sampleSize, Seed: seed},
		dds.WithReplicas(1), dds.WithSyncInterval(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	client, err := dds.Open(ctx, dds.Config{Coordinators: cl.Groups(), SampleSize: sampleSize, Seed: seed},
		dds.WithBatch(8), dds.WithPipelining(4))
	if err != nil {
		t.Fatal(err)
	}
	cl.Attach(client)

	oracle := core.NewReference(sampleSize, hashing.NewMurmur2(seed))
	offer := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			key := fmt.Sprintf("key-%d", i)
			oracle.Observe(key)
			if err := client.Offer(key, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := client.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	checkExact := func(label string) {
		t.Helper()
		sample, err := client.Query(ctx)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := oracle.SampleKeys()
		got := sample.Keys()
		if len(got) != len(want) {
			t.Fatalf("%s: sample has %d keys, want %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sample[%d] = %q, want %q", label, i, got[i], want[i])
			}
		}
	}

	offer(0, 1200)
	checkExact("after initial ingest")

	est, err := client.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if est.Count < 300 || est.Count > 5000 {
		t.Fatalf("estimate %+v implausible for 1200 distinct keys", est)
	}

	states, err := client.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 2 {
		t.Fatalf("snapshot returned %d shard states, want 2", len(states))
	}
	for _, st := range states {
		decoded, err := core.DecodeState(st.Data)
		if err != nil {
			t.Fatalf("shard %d snapshot does not decode: %v", st.Slot, err)
		}
		if decoded.Kind != core.StateInfinite || decoded.SampleSize != sampleSize {
			t.Fatalf("shard %d snapshot envelope %v/%d, want infinite/%d", st.Slot, decoded.Kind, decoded.SampleSize, sampleSize)
		}
	}

	// Failover: quiesce, kill shard 0's primary, keep ingesting.
	if err := cl.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.KillPrimary(0); err != nil {
		t.Fatal(err)
	}
	offer(1200, 2400)
	checkExact("after failover")

	// Live reshard: split shard 1, ingest, merge it back.
	rep := runPlan(t, client, func() (*dds.ReshardReport, error) { return cl.Split(1, 0.5) })
	if rep.Op != "split" {
		t.Fatalf("split report %+v", rep)
	}
	offer(2400, 3000)
	checkExact("after split")
	if idx := cl.RangeIndexOf(1); idx < 0 {
		t.Fatal("slot 1 owns no range after split")
	} else {
		runPlan(t, client, func() (*dds.ReshardReport, error) { return cl.MergeAt(idx) })
	}
	checkExact("after merge")

	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

// runPlan executes a reshard plan while pumping the (otherwise idle) client
// from its owning goroutine — cutovers are cooperative.
func runPlan(t *testing.T, client *dds.Client, plan func() (*dds.ReshardReport, error)) *dds.ReshardReport {
	t.Helper()
	type result struct {
		rep *dds.ReshardReport
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
			if err := client.Flush(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// TestOpenSharedBoundAcrossSplit checks that Open gives one client's shard
// sites one bound, the site of a slot a split adds included. A shard holds
// only keys the client offered, so its threshold never falls below the
// client's bound, and one pipelined client over two shards, split into
// three mid-stream, sends exactly the offers of the sequential engine's one
// site and one coordinator; its queried sample is the reference's.
func TestOpenSharedBoundAcrossSplit(t *testing.T) {
	const (
		sampleSize = 16
		seed       = 20130501
	)
	ctx := context.Background()
	cl, err := dds.Serve(ctx, dds.Config{Listen: "127.0.0.1:0", Shards: 2, SampleSize: sampleSize, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client, err := dds.Open(ctx, dds.Config{Coordinators: cl.Groups(), SampleSize: sampleSize, Seed: seed},
		dds.WithBatch(64), dds.WithPipelining(8))
	if err != nil {
		t.Fatal(err)
	}
	cl.Attach(client)

	hasher := hashing.NewMurmur2(seed)
	elements := dataset.Uniform(30000, 6000, seed).Generate()
	arrivals := distribute.Apply(elements, distribute.NewRoundRobin(1))
	runner := netsim.Runner{Sites: []netsim.SiteNode{core.NewInfiniteSite(0, hasher)}, Coordinator: core.NewInfiniteCoordinator(sampleSize)}
	want, err := runner.RunSequential(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	offer := func(arrivals []stream.Arrival) {
		t.Helper()
		for _, a := range arrivals {
			if err := client.Offer(a.Key, a.Slot); err != nil {
				t.Fatal(err)
			}
		}
		if err := client.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	offer(arrivals[:len(arrivals)/2])
	runPlan(t, client, func() (*dds.ReshardReport, error) { return cl.Split(0, 0.5) })
	offer(arrivals[len(arrivals)/2:])
	if offers, _, _ := cl.Stats(); offers != want.UpMessages {
		t.Errorf("the client sent %d offers, the engine %d", offers, want.UpMessages)
	}
	sample, err := client.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewReference(sampleSize, hasher)
	oracle.ObserveAll(stream.Keys(elements))
	if got := sample.Keys(); !reflect.DeepEqual(got, oracle.SampleKeys()) {
		t.Errorf("queried sample %v, want the reference's %v", got, oracle.SampleKeys())
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPISlidingWindow drives the sliding-window mode through the
// public surface: slotted ingest with EndSlot, a replicated cluster, a
// mid-ingest primary kill, and window queries that must match the
// brute-force window minimum. This is the sliding replication the unified
// Snapshot/Restore API added — before it, WithWindow plus WithReplicas was
// impossible.
func TestPublicAPISlidingWindow(t *testing.T) {
	const (
		window = 12
		seed   = 4242
	)
	ctx := context.Background()
	cl, err := dds.Serve(ctx, dds.Config{Listen: "127.0.0.1:0", Shards: 2, Seed: seed},
		dds.WithWindow(window), dds.WithReplicas(1), dds.WithSyncInterval(15*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	client, err := dds.Open(ctx, dds.Config{Coordinators: cl.Groups(), Seed: seed},
		dds.WithWindow(window), dds.WithBatch(4))
	if err != nil {
		t.Fatal(err)
	}

	hasher := hashing.NewMurmur2(seed)
	lastArrival := map[string]int64{}
	keyAt := func(slot int64, j int) string { return fmt.Sprintf("s%d-j%d", slot%17, j) }
	ingest := func(from, to int64) {
		t.Helper()
		for slot := from; slot <= to; slot++ {
			for j := 0; j < 6; j++ {
				key := keyAt(slot, j)
				lastArrival[key] = slot
				if err := client.Offer(key, slot); err != nil {
					t.Fatal(err)
				}
			}
			if err := client.EndSlot(slot); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkWindow := func(now int64, label string) {
		t.Helper()
		bestKey, bestHash := "", 2.0
		for key, last := range lastArrival {
			if last <= now-window {
				continue
			}
			if h := hasher.Unit(key); h < bestHash {
				bestKey, bestHash = key, h
			}
		}
		sample, err := client.Query(ctx)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(sample) != 1 || sample[0].Key != bestKey {
			t.Fatalf("%s: window sample %+v, want %q", label, sample, bestKey)
		}
	}

	ingest(0, 40)
	checkWindow(40, "after initial ingest")

	if err := cl.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.KillPrimary(0); err != nil {
		t.Fatal(err)
	}
	ingest(41, 80)
	checkWindow(80, "after failover")

	// Estimation is whole-stream only; the window client gets a typed error.
	if _, err := client.Estimate(ctx); err == nil {
		t.Fatal("Estimate succeeded in sliding-window mode")
	}

	// Snapshots carry the sliding state (kind, slot clock, store).
	states, err := client.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		decoded, err := core.DecodeState(st.Data)
		if err != nil {
			t.Fatalf("shard %d snapshot does not decode: %v", st.Slot, err)
		}
		if decoded.Kind != core.StateSliding {
			t.Fatalf("shard %d snapshot kind %v, want sliding", st.Slot, decoded.Kind)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenValidationAndContext pins Open's config validation and context
// handling.
func TestOpenValidationAndContext(t *testing.T) {
	ctx := context.Background()
	if _, err := dds.Open(ctx, dds.Config{}); err == nil {
		t.Fatal("Open with no coordinators succeeded")
	}
	if _, err := dds.Open(ctx, dds.Config{Coordinators: [][]string{{"127.0.0.1:1"}}}, dds.WithPipelining(1)); err == nil {
		t.Fatal("Open with pipelining depth 1 succeeded")
	}
	if _, err := dds.Open(ctx, dds.Config{Coordinators: [][]string{{"127.0.0.1:1"}}}, dds.WithCodec("json")); err == nil {
		t.Fatal("Open with the retired JSON codec succeeded")
	}
	if _, err := dds.Open(ctx, dds.Config{Coordinators: [][]string{{"127.0.0.1:1"}}}, dds.WithReplicas(-1)); err == nil {
		t.Fatal("Open with negative replicas succeeded")
	}
	if _, err := dds.Open(ctx, dds.Config{Coordinators: [][]string{{"127.0.0.1:1"}}}, dds.WithRetry(3, -time.Millisecond)); err == nil {
		t.Fatal("Open with negative retry base succeeded")
	}
	if _, err := dds.Open(ctx, dds.Config{Coordinators: [][]string{{"127.0.0.1:1"}}}, dds.WithTraceSampling(1.5)); err == nil {
		t.Fatal("Open with trace sample rate above 1 succeeded")
	}
	if _, err := dds.Open(ctx, dds.Config{Coordinators: [][]string{{"127.0.0.1:1"}}}, dds.WithTraceSampling(-0.1)); err == nil {
		t.Fatal("Open with negative trace sample rate succeeded")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := dds.Open(cancelled, dds.Config{Coordinators: [][]string{{"127.0.0.1:1"}}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Open with cancelled context returned %v, want context.Canceled", err)
	}
}

// TestSampleSizeMismatchRefused pins the hello-time guard: a client opened
// with a sample size other than its cluster's would drop keys the shards
// need, so every shard refuses it before any offer lands. The first failing
// operation returns an error wrapping wire.ErrSampleSize that names both
// sizes, no coordinator counts an offer, and the client neither reconnects
// (one hello per shard) nor promotes a replica (no epoch moves).
func TestSampleSizeMismatchRefused(t *testing.T) {
	const shards = 2
	ctx := context.Background()
	hellos := func() uint64 {
		snap := obs.Default().Snapshot()
		return snap.Counter(`dds_wire_frames_decoded_total{kind="hello"}`)
	}
	for _, replicas := range []int{0, 1} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			cl, err := dds.Serve(ctx, dds.Config{Listen: "127.0.0.1:0", Shards: shards, SampleSize: 16}, dds.WithReplicas(replicas))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			epochs := func() [][]uint64 {
				var all [][]uint64
				for slot := 0; slot < shards; slot++ {
					all = append(all, cl.Epochs(slot))
				}
				return all
			}
			epochsBefore, hellosBefore := epochs(), hellos()
			client, err := dds.Open(ctx, dds.Config{Coordinators: cl.Groups(), SampleSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = client.Close() }()
			// Every shard gets offers, and with one frame in flight a
			// shard's second offer waits for the first one's answer: every
			// shard's refusal reaches the client before the loop ends.
			failed := 0
			for i := 0; i < 1000; i++ {
				err := client.Offer(fmt.Sprintf("key-%d", i), 0)
				if err == nil {
					continue
				}
				if !errors.Is(err, wire.ErrSampleSize) {
					t.Fatalf("Offer %d returned %v, want an error wrapping wire.ErrSampleSize", i, err)
				}
				if msg := err.Error(); !strings.Contains(msg, "sample size 8") || !strings.Contains(msg, "coordinator's 16") {
					t.Fatalf("error %q does not name both sample sizes", msg)
				}
				failed++
			}
			if failed == 0 {
				t.Fatal("every Offer succeeded against a cluster of another sample size")
			}
			if err := client.Flush(); !errors.Is(err, wire.ErrSampleSize) {
				t.Fatalf("Flush returned %v, want an error wrapping wire.ErrSampleSize", err)
			}
			if offers, _, _ := cl.Stats(); offers != 0 {
				t.Fatalf("the cluster counted %d offers from a refused client", offers)
			}
			if got := hellos() - hellosBefore; got != shards {
				t.Fatalf("%d hello frames for %d shards: the refused client reconnected", got, shards)
			}
			if got := epochs(); !reflect.DeepEqual(got, epochsBefore) {
				t.Fatalf("epochs moved from %v to %v: the refused client promoted a member", epochsBefore, got)
			}
		})
	}
}

// TestPublicAPILeaseFencing pins the lease options through the public
// surface: the contradictory configurations fail at Serve, and a leased,
// replicated cluster with a retrying client survives a primary kill with the
// sample still exact — the happy path where quorum renewals keep every lease
// alive and the client's retry policy only ever arms.
func TestPublicAPILeaseFencing(t *testing.T) {
	const (
		sampleSize = 16
		seed       = 20130501
	)
	ctx := context.Background()
	if _, err := dds.Serve(ctx, dds.Config{Listen: "127.0.0.1:0"},
		dds.WithReplicas(1), dds.WithLease(50*time.Millisecond)); err == nil {
		t.Fatal("Serve with lease not exceeding the sync interval succeeded")
	}
	if _, err := dds.Serve(ctx, dds.Config{Listen: "127.0.0.1:0"},
		dds.WithLease(200*time.Millisecond)); err == nil {
		t.Fatal("Serve with a lease but no replicas succeeded")
	}
	if _, err := dds.Serve(ctx, dds.Config{Listen: "127.0.0.1:0"},
		dds.WithLease(-time.Second)); err == nil {
		t.Fatal("Serve with a negative lease succeeded")
	}

	cl, err := dds.Serve(ctx, dds.Config{Listen: "127.0.0.1:0", Shards: 2, SampleSize: sampleSize, Seed: seed},
		dds.WithReplicas(1), dds.WithSyncInterval(15*time.Millisecond), dds.WithLease(90*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	client, err := dds.Open(ctx, dds.Config{Coordinators: cl.Groups(), SampleSize: sampleSize, Seed: seed},
		dds.WithBatch(8), dds.WithRetry(8, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	oracle := core.NewReference(sampleSize, hashing.NewMurmur2(seed))
	offer := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			key := fmt.Sprintf("lease-%d", i)
			oracle.Observe(key)
			if err := client.Offer(key, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := client.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	checkExact := func(label string) {
		t.Helper()
		sample, err := client.Query(ctx)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := oracle.SampleKeys()
		got := sample.Keys()
		if len(got) != len(want) {
			t.Fatalf("%s: sample has %d keys, want %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sample[%d] = %q, want %q", label, i, got[i], want[i])
			}
		}
	}

	offer(0, 800)
	checkExact("after leased ingest")

	// A quiesced kill: the promoted replica re-arms its lease from the next
	// quorum round, and the client's failover replay keeps the sample exact.
	if err := cl.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.KillPrimary(0); err != nil {
		t.Fatal(err)
	}
	offer(800, 1600)
	checkExact("after failover under lease")

	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestAfterCloseFails: once a Client is closed, Offer, EndSlot and
// Flush fail with an error wrapping net.ErrClosed on every transport, and no
// shard connection is re-dialed behind them: no hello frame reaches a
// coordinator.
func TestIngestAfterCloseFails(t *testing.T) {
	const (
		sampleSize = 8
		seed       = 7
	)
	ctx := context.Background()
	cl, err := dds.Serve(ctx, dds.Config{Listen: "127.0.0.1:0", Shards: 2, SampleSize: sampleSize, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	hellos := func() uint64 {
		snap := obs.Default().Snapshot()
		return snap.Counter(`dds_wire_frames_decoded_total{kind="hello"}`)
	}
	for _, tc := range []struct {
		name string
		opts []dds.Option
	}{
		{"per-offer", nil},
		{"binary-batched", []dds.Option{dds.WithCodec(dds.CodecBinary), dds.WithBatch(16)}},
		{"pipelined", []dds.Option{dds.WithCodec(dds.CodecBinary), dds.WithBatch(16), dds.WithPipelining(4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, err := dds.Open(ctx, dds.Config{Coordinators: cl.Groups(), SampleSize: sampleSize, Seed: seed}, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				if err := client.Offer(fmt.Sprintf("key-%d", i), 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := client.Close(); err != nil {
				t.Fatal(err)
			}
			before := hellos()
			for i := 0; i < 2000; i++ {
				if err := client.Offer(fmt.Sprintf("late-%d", i), 0); !errors.Is(err, net.ErrClosed) {
					t.Fatalf("Offer %d after Close: %v, want an error wrapping net.ErrClosed", i, err)
				}
			}
			if err := client.EndSlot(1); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("EndSlot after Close: %v, want an error wrapping net.ErrClosed", err)
			}
			if err := client.Flush(); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("Flush after Close: %v, want an error wrapping net.ErrClosed", err)
			}
			if d := hellos() - before; d != 0 {
				t.Fatalf("%d hello frames after Close: a shard connection was re-dialed", d)
			}
		})
	}
}
