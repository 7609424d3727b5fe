package dds_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/dds"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/sliding"
	"repro/internal/stream"
)

// TestOpenSharedCandidateAcrossSplit checks that Open gives one sliding-window
// client's shard sites one candidate, the site of a slot a split adds
// included. A shard holds only what the client offered, so its replies never
// beat the client's live candidate, and one pipelined client over two
// shards, split into three mid-stream, sends exactly the offers of the
// sequential engine's one site and one coordinator; its window sample is the
// engine's.
func TestOpenSharedCandidateAcrossSplit(t *testing.T) {
	const (
		window = 20
		seed   = 20130501
	)
	ctx := context.Background()
	cl, err := dds.Serve(ctx, dds.Config{Listen: "127.0.0.1:0", Shards: 2, Seed: seed}, dds.WithWindow(window))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client, err := dds.Open(ctx, dds.Config{Coordinators: cl.Groups(), Seed: seed},
		dds.WithWindow(window), dds.WithBatch(64), dds.WithPipelining(8))
	if err != nil {
		t.Fatal(err)
	}
	cl.Attach(client)

	hasher := hashing.NewMurmur2(seed)
	elements := stream.Reslot(dataset.Uniform(20000, 4000, seed).Generate(), 50)
	arrivals := distribute.Apply(elements, distribute.NewRoundRobin(1))
	want, err := sliding.NewSystem(1, window, hasher, seed).Runner(0, 0).RunSequential(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	ingest := func(from, to int64) {
		t.Helper()
		for slot := from; slot <= to; slot++ {
			for ; idx < len(arrivals) && arrivals[idx].Slot == slot; idx++ {
				if err := client.Offer(arrivals[idx].Key, slot); err != nil {
					t.Fatal(err)
				}
			}
			if err := client.EndSlot(slot); err != nil {
				t.Fatal(err)
			}
		}
	}
	first, last := arrivals[0].Slot, arrivals[len(arrivals)-1].Slot
	mid := (first + last) / 2
	ingest(first, mid)
	runPlan(t, client, func() (*dds.ReshardReport, error) { return cl.Split(0, 0.5) })
	ingest(mid+1, last)
	if offers, _, _ := cl.Stats(); offers != want.UpMessages {
		t.Errorf("the client sent %d offers, the engine %d", offers, want.UpMessages)
	}
	sample, err := client.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.FinalSample) != 1 || len(sample) != 1 || sample[0].Key != want.FinalSample[0].Key || sample[0].Hash != want.FinalSample[0].Hash {
		t.Errorf("window sample %+v, want the engine's %+v", sample, want.FinalSample)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryWindowAtNewestShardClock checks that a one-shot window read
// without a slot clock (Query, or QueryAsOf with asOf 0) evaluates expiry at
// the newest slot clock among the shards it reads, so a shard whose clock
// no message has advanced cannot return an element that has left the
// window. The lowest-hash key of shard 0 arrives at slot 0, then only
// shard-1 keys arrive, each hashing below the one before, so that from slot
// 5, once the first has expired, every arrival is offered and shard 1's
// clock reads the current slot; shard 0's stays at 0.
func TestQueryWindowAtNewestShardClock(t *testing.T) {
	const (
		window = 4
		seed   = 77
		now    = 10
	)
	ctx := context.Background()
	opts := []dds.Option{dds.WithWindow(window)}
	cl, err := dds.Serve(ctx, dds.Config{Listen: "127.0.0.1:0", Shards: 2, Seed: seed}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cfg := dds.Config{Coordinators: cl.Groups(), Seed: seed}
	client, err := dds.Open(ctx, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	hasher := hashing.NewMurmur2(seed)
	router := cluster.NewShardRouter(2, hasher)
	var low string
	var shard1 []string
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("k%d", i)
		if router.Shard(key) == 0 {
			if low == "" || hasher.Unit(key) < hasher.Unit(low) {
				low = key
			}
			continue
		}
		shard1 = append(shard1, key)
	}
	sort.Slice(shard1, func(i, j int) bool { return hasher.Unit(shard1[i]) > hasher.Unit(shard1[j]) })
	for len(shard1) > 0 && hasher.Unit(shard1[len(shard1)-1]) < hasher.Unit(low) {
		shard1 = shard1[:len(shard1)-1]
	}
	if len(shard1) < 2*now {
		t.Fatalf("only %d shard-1 keys hash above shard 0's lowest", len(shard1))
	}

	if err := client.Offer(low, 0); err != nil {
		t.Fatal(err)
	}
	if err := client.EndSlot(0); err != nil {
		t.Fatal(err)
	}
	for slot := int64(1); slot <= now; slot++ {
		for j := 0; j < 2; j++ {
			if err := client.Offer(shard1[0], slot); err != nil {
				t.Fatal(err)
			}
			shard1 = shard1[1:]
		}
		if err := client.EndSlot(slot); err != nil {
			t.Fatal(err)
		}
	}

	want, err := dds.QueryAsOf(ctx, now, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || want[0].Expiry < now || want[0].Key == low {
		t.Fatalf("QueryAsOf(%d) = %+v, want one live entry", now, want)
	}
	own, err := client.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := dds.Query(ctx, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	atZero, err := dds.QueryAsOf(ctx, 0, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]dds.Sample{"Client.Query": own, "Query": oneShot, "QueryAsOf(0)": atZero} {
		if len(got) != 1 || got[0] != want[0] {
			t.Errorf("%s = %+v, want %+v (%s expired at slot %d)", name, got, want, low, window-1)
		}
	}
}
