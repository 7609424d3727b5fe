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
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/stream"
	"repro/internal/wire"
)

// fakeDriver is a reshardDriver over a bare RangeTable: plans mutate the
// table instantly and are recorded in order, so hysteresis tests observe
// exactly which decisions the watcher made and when.
type fakeDriver struct {
	table RangeTable
	plans []string
	fail  bool
}

func newFakeDriver(shards int) *fakeDriver {
	return &fakeDriver{table: UniformTable(shards)}
}

func (f *fakeDriver) Table() RangeTable { return f.table.clone() }

func (f *fakeDriver) Split(slot int, mid uint64) (*ReshardReport, error) {
	if f.fail {
		return nil, errors.New("fake: plan refused")
	}
	next, err := f.table.Split(slot, mid, f.table.MaxSlot()+1)
	if err != nil {
		return nil, err
	}
	f.table = next
	f.plans = append(f.plans, fmt.Sprintf("split@%d", slot))
	return &ReshardReport{Op: "split", Version: next.Version}, nil
}

func (f *fakeDriver) MergeAt(rangeIdx int) (*ReshardReport, error) {
	if f.fail {
		return nil, errors.New("fake: plan refused")
	}
	next, _, _, err := f.table.Merge(rangeIdx)
	if err != nil {
		return nil, err
	}
	survivor := f.table.Slots[rangeIdx]
	f.table = next
	f.plans = append(f.plans, fmt.Sprintf("merge@%d", survivor))
	return &ReshardReport{Op: "merge", Version: next.Version}, nil
}

// fakeClock is a manually-advanced clock for deterministic cooldown tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// stepWatcher builds a watcher over a fake driver wired for direct step()
// feeds: no delta reader, no background loop, a frozen clock.
func stepWatcher(drv reshardDriver, cfg WatcherConfig) (*Watcher, *fakeClock) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	return newWatcher(drv, cfg, nil, clock.now), clock
}

// TestWatcherFlappingLoadNoOscillation is the hysteresis property the issue
// demands: a load pattern that flaps the hot slot back and forth around the
// high watermark every tick must produce ZERO plans — the EWMA plus the
// sustain requirement mean only a persistent breach acts — while the skip
// instrumentation shows the watcher was scoring the whole time.
func TestWatcherFlappingLoadNoOscillation(t *testing.T) {
	before := obs.Default().Snapshot()
	drv := newFakeDriver(2)
	w, _ := stepWatcher(drv, WatcherConfig{
		HighWatermark: 0.65,
		LowWatermark:  0.10,
		Cooldown:      time.Second,
		Alpha:         0.5,
		SustainTicks:  2,
	})

	for tick := 0; tick < 200; tick++ {
		if tick%2 == 0 {
			w.step(map[int]uint64{0: 90, 1: 10})
		} else {
			w.step(map[int]uint64{0: 10, 1: 90})
		}
	}
	if len(drv.plans) != 0 {
		t.Fatalf("flapping load produced plans: %v", drv.plans)
	}
	st := w.Stats()
	if st.Ticks != 200 || st.Splits != 0 || st.Merges != 0 {
		t.Fatalf("stats = %+v, want 200 ticks and zero plans", st)
	}
	after := obs.Default().Snapshot()
	if d := after.Counter(`dds_watcher_skipped_total{reason="sustain"}`) - before.Counter(`dds_watcher_skipped_total{reason="sustain"}`); d == 0 {
		t.Fatal("flapping run never recorded a sustain skip: the watermark was never even transiently breached (pattern too weak?)")
	}
	if d := after.Counter(`dds_watcher_plans_total{op="split"}`) - before.Counter(`dds_watcher_plans_total{op="split"}`); d != 0 {
		t.Fatalf("split plan counter moved %d times under flapping load", d)
	}
}

// TestWatcherCooldownBlocksOscillation pins the cooldown half of the guard:
// after one executed plan, a fresh sustained breach — even a blatant one on
// a different slot — produces no second plan until the cooldown window has
// fully elapsed on the watcher's clock.
func TestWatcherCooldownBlocksOscillation(t *testing.T) {
	before := obs.Default().Snapshot()
	const cooldown = 10 * time.Second
	drv := newFakeDriver(2)
	w, clock := stepWatcher(drv, WatcherConfig{
		HighWatermark: 0.60,
		LowWatermark:  0.05,
		Cooldown:      cooldown,
		Alpha:         1, // no smoothing: the cooldown must hold alone
		SustainTicks:  2,
	})

	// Two sustained hot ticks on slot 0: the first plan executes.
	w.step(map[int]uint64{0: 95, 1: 5})
	w.step(map[int]uint64{0: 95, 1: 5})
	if len(drv.plans) != 1 || drv.plans[0] != "split@0" {
		t.Fatalf("plans = %v, want exactly [split@0]", drv.plans)
	}

	// Inside the cooldown window: sustained breaches on slot 1 are declined,
	// tick after tick, no matter how long the streak would be.
	for tick := 0; tick < 50; tick++ {
		clock.advance(cooldown / 100) // stays strictly inside the window
		w.step(map[int]uint64{0: 2, 1: 95, 2: 3})
	}
	if len(drv.plans) != 1 {
		t.Fatalf("a plan executed inside the cooldown window: %v", drv.plans)
	}
	after := obs.Default().Snapshot()
	if d := after.Counter(`dds_watcher_skipped_total{reason="cooldown"}`) - before.Counter(`dds_watcher_skipped_total{reason="cooldown"}`); d == 0 {
		t.Fatal("no cooldown skip recorded while declining in-window breaches")
	}

	// Past the window: the same pattern is acted on after the sustain streak
	// rebuilds (the smoothing state was reset by the first plan).
	clock.advance(cooldown)
	w.step(map[int]uint64{0: 2, 1: 95, 2: 3})
	w.step(map[int]uint64{0: 2, 1: 95, 2: 3})
	if len(drv.plans) != 2 || drv.plans[1] != "split@1" {
		t.Fatalf("plans after cooldown = %v, want [split@0 split@1]", drv.plans)
	}
}

// TestWatcherDeterministicFeeds pins the decide() purity claim: the same
// delta feed against the same config yields the same plan sequence, run for
// run — splits, merges, and their order.
func TestWatcherDeterministicFeeds(t *testing.T) {
	run := func() []string {
		drv := newFakeDriver(2)
		w, clock := stepWatcher(drv, WatcherConfig{
			HighWatermark: 0.70,
			LowWatermark:  0.15,
			Cooldown:      time.Second,
			Alpha:         0.5,
			SustainTicks:  2,
			MaxShards:     6,
		})
		rng := rand.New(rand.NewSource(4242))
		for tick := 0; tick < 400; tick++ {
			clock.advance(100 * time.Millisecond)
			deltas := make(map[int]uint64)
			table := drv.Table()
			// A hot phase pins most load on the lowest live slot, a cold
			// phase spreads it thin — with seeded noise on top.
			for i, slot := range table.Slots {
				base := uint64(10)
				if tick%100 < 50 && i == 0 {
					base = 900
				}
				deltas[slot] = base + uint64(rng.Intn(10))
			}
			w.step(deltas)
		}
		return drv.plans
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("deterministic feed produced no plans at all; the pattern should breach both watermarks")
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("same feed, different plans:\n first: %v\nsecond: %v", first, second)
	}
}

// TestWatcherMergesSustainedColdPair covers the merge arm: with splitting
// disabled by an unreachable high watermark, a table whose coldest adjacent
// pair stays below the low watermark is merged — once, into the left member,
// after the sustain streak.
func TestWatcherMergesSustainedColdPair(t *testing.T) {
	drv := newFakeDriver(3)
	w, _ := stepWatcher(drv, WatcherConfig{
		HighWatermark: 2, // unreachable: shares cannot exceed 1
		LowWatermark:  0.10,
		Cooldown:      time.Hour,
		Alpha:         1,
		SustainTicks:  2,
		MinShards:     2,
	})
	w.step(map[int]uint64{0: 96, 1: 2, 2: 2})
	if len(drv.plans) != 0 {
		t.Fatalf("merge executed before the sustain streak: %v", drv.plans)
	}
	w.step(map[int]uint64{0: 96, 1: 2, 2: 2})
	if len(drv.plans) != 1 || drv.plans[0] != "merge@1" {
		t.Fatalf("plans = %v, want [merge@1] (ranges 1 and 2 are the cold pair)", drv.plans)
	}
	// Cooldown (an hour on a frozen clock) holds the floor: no more plans.
	w.step(map[int]uint64{0: 96, 1: 4})
	w.step(map[int]uint64{0: 96, 1: 4})
	if len(drv.plans) != 1 {
		t.Fatalf("plan executed inside cooldown: %v", drv.plans)
	}
}

// TestWatcherRespectsTableBounds pins the MaxShards/MinShards guardrails and
// the idle skip: a watcher at its size limits declines with the matching
// skip reasons instead of planning, and ticks without meaningful load score
// nothing.
func TestWatcherRespectsTableBounds(t *testing.T) {
	before := obs.Default().Snapshot()

	// A 2-shard table already at MaxShards declines a blatant hot slot.
	capped := newFakeDriver(2)
	w, _ := stepWatcher(capped, WatcherConfig{
		HighWatermark: 0.60,
		Alpha:         1,
		SustainTicks:  1,
		MaxShards:     2,
	})
	w.step(map[int]uint64{})            // idle
	w.step(map[int]uint64{0: 95, 1: 5}) // hot, but the table is at MaxShards
	if len(capped.plans) != 0 {
		t.Fatalf("capped watcher executed plans: %v", capped.plans)
	}

	// A 3-shard table already at MinShards declines a blatant cold pair
	// (splitting disabled by an unreachable high watermark).
	floored := newFakeDriver(3)
	w, _ = stepWatcher(floored, WatcherConfig{
		HighWatermark: 2,
		LowWatermark:  0.10,
		Alpha:         1,
		SustainTicks:  1,
		MinShards:     3,
	})
	w.step(map[int]uint64{0: 96, 1: 2, 2: 2}) // cold pair (1,2), table at MinShards
	if len(floored.plans) != 0 {
		t.Fatalf("floored watcher executed plans: %v", floored.plans)
	}
	after := obs.Default().Snapshot()
	for _, reason := range []string{"idle", "max-shards", "min-shards"} {
		name := fmt.Sprintf("dds_watcher_skipped_total{reason=%q}", reason)
		if after.Counter(name)-before.Counter(name) == 0 {
			t.Fatalf("skip reason %q not recorded", reason)
		}
	}
}

// TestWatcherAutopilotSplitsHotShardNoHands is the tentpole's acceptance
// test: a replicated 2-shard cluster ingests a skewed Zipf stream (the OC48
// synthetic) through flooding site clients with ZERO manual reshard plans —
// the watcher alone observes the hot shard through the live registry's
// counter deltas, sustains the breach, and executes the split through the
// Resharder, whose cutover pushes the new table to every connected site.
// After the autopilot acts, the merged cluster sample must be byte-identical
// to the centralized reference, the plan must be counted and traced, and the
// route table version must have advanced past the initial table's.
func TestWatcherAutopilotSplitsHotShardNoHands(t *testing.T) {
	const (
		k      = 3
		s      = 24
		seed   = 61409
		shards = 2
		syncIv = 20 * time.Millisecond
	)
	before := obs.Default().Snapshot()
	obs.SetTraceSampleRate(1)
	defer obs.SetTraceSampleRate(0)
	// Spans are counted, not looked up: StageSpan feeds each stage's
	// histogram with every span it puts in the trace ring, and the ingest
	// after the cutover can overwrite the cutover's span in the ring.
	watcherSpans := obs.StageHistogram("watcher_split").Count()
	cutoverSpans := obs.StageHistogram(obs.StageRoutePush).Count()

	hasher := hashing.NewMurmur2(seed)
	all := dataset.OC48(0.0002, seed).Generate() // Zipf 1.2: the skewed ingest
	arrivals := distribute.Apply(all, distribute.NewRandom(k, seed))
	perSite := make([][]stream.Arrival, k)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}

	router := NewShardRouter(shards, hasher)
	// Precondition on the fixture, not the code under test: the stream must
	// actually be skewed across the initial table, or the watermark below is
	// meaningless. Fails loudly if the dataset or routing ever changes.
	counts := make(map[int]int)
	for _, a := range arrivals {
		counts[router.Shard(a.Key)]++
	}
	hot := 0
	for _, c := range counts {
		if c > hot {
			hot = c
		}
	}
	hotShare := float64(hot) / float64(len(arrivals))
	if hotShare < 0.55 {
		t.Fatalf("fixture no longer skewed: hottest initial shard carries %.2f of arrivals, need >= 0.55", hotShare)
	}

	srv, err := replica.Listen("127.0.0.1:0", shards, replica.Options{
		Replicas:     1,
		SyncInterval: syncIv,
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
	initialVersion := rs.Table().Version

	clientOpts := wire.Options{
		Codec:     wire.CodecBinary,
		BatchSize: 16,
		RetryMax:  12,
		RetryBase: 2 * time.Millisecond,
	}
	clients := make([]*SiteClient, k)
	for site := 0; site < k; site++ {
		id := site
		// Flood mode: every arrival becomes a wire offer, so the per-slot
		// offer counters see the stream's true skew (protocol-filtered sites
		// only surface threshold-crossing offers — a much weaker signal).
		clients[site], err = DialGroups(srv.GroupAddrs(), router, func(int) netsim.SiteNode {
			return &floodSite{id: id, hasher: hasher}
		}, clientOpts)
		if err != nil {
			t.Fatal(err)
		}
	}
	rs.Register(clients...)

	w := newWatcher(rs, WatcherConfig{
		Interval:      5 * time.Millisecond,
		HighWatermark: 0.55,
		LowWatermark:  0.02, // merges effectively disabled for this run
		Cooldown:      500 * time.Millisecond,
		Alpha:         0.5,
		SustainTicks:  2,
		MaxShards:     4,
	}, obs.NewDeltaReader(obs.Default()), time.Now)
	w.Start()
	defer w.Stop()

	// ingestRound replays every site's whole stream concurrently while
	// pumping route updates — re-offering the same keys never changes a
	// bottom-s sample, so rounds repeat until the watcher has had enough
	// sustained ticks to act, however slow the machine.
	ingestRound := func() {
		t.Helper()
		opDone := make(chan struct{})
		errs := make(chan error, k)
		var wg sync.WaitGroup
		for site := 0; site < k; site++ {
			wg.Add(1)
			go func(site int) {
				defer wg.Done()
				for _, a := range perSite[site] {
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
		close(opDone)
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("ingest round: %v", err)
			}
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	rounds := 0
	for w.Stats().Splits == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("watcher never split the hot shard (stats %+v after %d rounds)", w.Stats(), rounds)
		}
		ingestRound()
		rounds++
	}
	// One more full round across the post-split table, so the moved range
	// sees traffic under the new owner too, then quiesce.
	ingestRound()
	for site := 0; site < k; site++ {
		if err := clients[site].Flush(); err != nil {
			t.Fatalf("quiesce flush site %d: %v", site, err)
		}
	}
	if err := srv.SyncNow(); err != nil {
		t.Fatalf("quiesce sync: %v", err)
	}

	// Byte-identity with the centralized reference: the autopilot's cutover
	// lost and duplicated nothing.
	oracle := core.NewReference(s, hasher)
	oracle.ObserveAll(stream.Keys(arrivalElements(arrivals)))
	want, err := json.Marshal(oracle.Sample())
	if err != nil {
		t.Fatal(err)
	}
	samples, err := srv.PrimarySamples()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(Merge(s, samples...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged sample diverged from reference after autopilot split\n got: %s\nwant: %s", got, want)
	}

	for site, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatalf("close site %d: %v", site, err)
		}
	}

	// The control loop demonstrably ran, counted, and traced. Deltas, not
	// absolutes — the registry is process-global.
	st := w.Stats()
	if st.Splits < 1 {
		t.Fatalf("watcher stats report no split: %+v", st)
	}
	if v := rs.Table().Version; v <= initialVersion {
		t.Fatalf("route table version %d did not advance past %d", v, initialVersion)
	}
	after := obs.Default().Snapshot()
	delta := func(name string) uint64 { return after.Counter(name) - before.Counter(name) }
	if d := delta(`dds_watcher_plans_total{op="split"}`); d < 1 {
		t.Fatal(`dds_watcher_plans_total{op="split"} did not move`)
	}
	if d := delta(`dds_watcher_skipped_total{reason="sustain"}`); d < 1 {
		t.Fatal("no sustain skip recorded: the split fired without hysteresis ever engaging")
	}
	if obs.StageHistogram("watcher_split").Count() == watcherSpans {
		t.Fatal("no watcher_split span recorded: the autopilot's decision was not traced")
	}
	if obs.StageHistogram(obs.StageRoutePush).Count() == cutoverSpans {
		t.Fatal("no route_push span recorded for the autopilot's cutover")
	}
}

// TestWatcherChurnWeightFold pins the load fold itself: shardDeltas scales
// churn counter movement by ChurnWeight (rounded to nearest) while offers
// always count at weight 1, and a negative weight drops churn entirely.
func TestWatcherChurnWeightFold(t *testing.T) {
	cases := []struct {
		weight    float64
		wantSlot0 uint64 // 100 offers
		wantSlot1 uint64 // 40 churn
	}{
		{weight: 0, wantSlot0: 100, wantSlot1: 40}, // zero value = historical equal fold
		{weight: 1, wantSlot0: 100, wantSlot1: 40}, // explicit equal fold
		{weight: 2.5, wantSlot0: 100, wantSlot1: 100},
		{weight: 0.25, wantSlot0: 100, wantSlot1: 10},
		{weight: -1, wantSlot0: 100, wantSlot1: 0}, // negative = ignore churn
	}
	for _, tc := range cases {
		reg := obs.NewRegistry()
		reader := obs.NewDeltaReader(reg)
		w := newWatcher(newFakeDriver(2), WatcherConfig{ChurnWeight: tc.weight}, reader, time.Now)
		reg.Counter(`dds_shard_offers_total{slot="0"}`).Add(100)
		reg.Counter(`dds_shard_sample_churn_total{slot="1"}`).Add(40)
		got := w.shardDeltas()
		if got[0] != tc.wantSlot0 {
			t.Fatalf("weight %v: slot 0 load = %d, want %d (offers must never be scaled)", tc.weight, got[0], tc.wantSlot0)
		}
		if got[1] != tc.wantSlot1 {
			t.Fatalf("weight %v: slot 1 load = %d, want %d", tc.weight, got[1], tc.wantSlot1)
		}
	}
}

// TestWatcherChurnWeightHysteresis is the satellite's property test: the
// same churn-dominated feed splits the churn-hot slot when churn is weighted
// up, produces nothing when churn is ignored, and in both configurations the
// hysteresis guards hold — a flapping churn pattern never plans, no matter
// the weight.
func TestWatcherChurnWeightHysteresis(t *testing.T) {
	feed := func(w *Watcher, reg *obs.Registry, ticks int, flap bool) {
		for tick := 0; tick < ticks; tick++ {
			hot := 1
			if flap && tick%2 == 1 {
				hot = 0
			}
			if !flap {
				// Slot 0: pure arrival pressure the churn-blind fold scores
				// highest. Omitted when flapping so neither slot holds a
				// sustained offer majority.
				reg.Counter(`dds_shard_offers_total{slot="0"}`).Add(50)
			}
			// Slot `hot`: modest offers but heavy sample churn — the
			// signature of a sketch being actively reshaped.
			reg.Counter(fmt.Sprintf(`dds_shard_offers_total{slot="%d"}`, 1-hot)).Add(10)
			reg.Counter(fmt.Sprintf(`dds_shard_offers_total{slot="%d"}`, hot)).Add(10)
			reg.Counter(fmt.Sprintf(`dds_shard_sample_churn_total{slot="%d"}`, hot)).Add(60)
			w.step(w.shardDeltas())
		}
	}
	cfg := WatcherConfig{
		HighWatermark: 0.65,
		LowWatermark:  0.05,
		Cooldown:      time.Hour, // one plan max: isolates the first decision
		Alpha:         0.5,
		SustainTicks:  3,
	}

	// Churn weighted up: slot 1's sustained churn dominates and splits it.
	cfg.ChurnWeight = 4
	reg := obs.NewRegistry()
	drv := newFakeDriver(2)
	w := newWatcher(drv, cfg, obs.NewDeltaReader(reg), time.Now)
	feed(w, reg, 20, false)
	if len(drv.plans) != 1 || drv.plans[0] != "split@1" {
		t.Fatalf("churn-weighted watcher plans = %v, want exactly [split@1]", drv.plans)
	}

	// Churn ignored: the identical feed scores slot 0 highest (50 vs 10
	// offers, ~83%% share) — the churn-hot slot must NOT split.
	cfg.ChurnWeight = -1
	reg = obs.NewRegistry()
	drv = newFakeDriver(2)
	w = newWatcher(drv, cfg, obs.NewDeltaReader(reg), time.Now)
	feed(w, reg, 20, false)
	for _, p := range drv.plans {
		if p == "split@1" {
			t.Fatalf("churn-blind watcher split the churn-hot slot: %v", drv.plans)
		}
	}

	// Hysteresis survives the weighting: churn flapping between slots every
	// tick breaches no sustained watermark, so neither weight plans.
	for _, weight := range []float64{4, -1} {
		cfg.ChurnWeight = weight
		reg = obs.NewRegistry()
		drv = newFakeDriver(2)
		w = newWatcher(drv, cfg, obs.NewDeltaReader(reg), time.Now)
		feed(w, reg, 200, true)
		if len(drv.plans) != 0 {
			t.Fatalf("weight %v: flapping churn produced plans: %v", weight, drv.plans)
		}
	}
}
