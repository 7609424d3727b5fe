package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/replica"
	"repro/internal/sliding"
	"repro/internal/stream"
	"repro/internal/wire"
)

// BenchConfig describes one cluster ingest benchmark run: a synthetic
// uniform stream distributed over Sites site processes, ingested into a
// Shards-shard cluster of infinite-window coordinators over localhost TCP.
type BenchConfig struct {
	Shards     int
	Sites      int
	SampleSize int
	Elements   int
	Distinct   int
	Codec      wire.Codec
	Batch      int
	// Window is the credit window: how many batch frames may be in flight
	// per connection (see wire.Options.Window); 0 or 1 keeps one frame in
	// flight, the request/response dialogue.
	Window int
	// Flood makes every site offer every arrival unconditionally instead of
	// running the protocol's local threshold filter. The coordinator's
	// bottom-s sample is unchanged (extra offers can never evict a smaller
	// hash), so the reference cross-check still applies, but the wire now
	// carries one offer per element — the configuration that measures
	// transport throughput rather than the protocol's (intentionally tiny)
	// offer rate.
	Flood bool
	Seed  uint64
}

// DefaultBenchConfig is a sub-second configuration used by cmd/ddsbench and
// tests.
func DefaultBenchConfig() BenchConfig {
	return BenchConfig{
		Shards:     1,
		Sites:      4,
		SampleSize: 32,
		Elements:   20000,
		Distinct:   5000,
		Codec:      wire.CodecBinary,
		Batch:      1,
		Seed:       20130501,
	}
}

// BenchResult is the machine-readable outcome of one cluster ingest run,
// serialized into BENCH_cluster.json by cmd/ddsbench so future changes can
// track the performance trajectory.
type BenchResult struct {
	Shards            int     `json:"shards"`
	Sites             int     `json:"sites"`
	SampleSize        int     `json:"sample_size"`
	Codec             string  `json:"codec"`
	Batch             int     `json:"batch"`
	Window            int     `json:"window"`
	Flood             bool    `json:"flood,omitempty"`
	Elements          int     `json:"elements"`
	DistinctKeys      int     `json:"distinct_keys"`
	Seconds           float64 `json:"seconds"`
	OpsPerSec         float64 `json:"ops_per_sec"`
	Offers            int     `json:"offers"`
	Replies           int     `json:"replies"`
	MsgsPerElement    float64 `json:"msgs_per_element"`
	PerShardOffers    []int   `json:"per_shard_offers"`
	PerShardSampleLen []int   `json:"per_shard_sample_len"`
	MergedSampleLen   int     `json:"merged_sample_len"`
	DistinctEstimate  float64 `json:"distinct_estimate"`
}

// floodSite is a stub site for Flood benchmark runs: it offers every arrival
// to the owning shard unconditionally and ignores threshold replies. The
// coordinator's bottom-s sample is identical to the protocol's — redundant
// offers never change a bottom-s sketch — but the transport now carries one
// offer per element, exposing wire throughput instead of protocol behavior.
type floodSite struct {
	id     int
	hasher hashing.UnitHasher
}

func (f *floodSite) ID() int { return f.id }
func (f *floodSite) OnArrival(key string, _ int64, out *netsim.Outbox) {
	out.ToCoordinator(netsim.Message{Kind: netsim.KindOffer, Key: key, Hash: f.hasher.Unit(key)})
}
func (f *floodSite) OnMessage(netsim.Message, int64, *netsim.Outbox) {}
func (f *floodSite) OnSlotEnd(int64, *netsim.Outbox)                 {}
func (f *floodSite) Memory() int                                     { return 0 }

// RunIngestBench spins up a cfg.Shards-shard cluster on localhost, replays
// the synthetic stream through cfg.Sites concurrent site clients, and
// returns throughput, message accounting, and per-shard load. It also
// cross-checks the merged sample against the centralized reference and
// fails if they differ, so every benchmark run doubles as a correctness
// check.
func RunIngestBench(cfg BenchConfig) (*BenchResult, error) {
	hasher := hashing.NewMurmur2(cfg.Seed)
	elements := dataset.Uniform(cfg.Elements, cfg.Distinct, cfg.Seed).Generate()
	arrivals := distribute.Apply(elements, distribute.NewRandom(cfg.Sites, cfg.Seed))
	perSite := make([][]stream.Arrival, cfg.Sites)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}

	srv, err := Listen("127.0.0.1:0", cfg.Shards, func(int) netsim.CoordinatorNode {
		return core.NewInfiniteCoordinator(cfg.SampleSize)
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	router := NewShardRouter(cfg.Shards, hasher)
	opts := wire.Options{Codec: cfg.Codec, BatchSize: cfg.Batch, Window: cfg.Window}
	clients := make([]*SiteClient, cfg.Sites)
	// Close any still-open clients on every exit path: the deferred
	// srv.Close() waits for connection handlers, which only return once
	// their client side is gone, so leaking a client would deadlock error
	// returns.
	defer func() {
		for _, c := range clients {
			if c != nil {
				_ = c.Close()
			}
		}
	}()
	for site := 0; site < cfg.Sites; site++ {
		id := site
		newSite := func(int) netsim.SiteNode { return core.NewInfiniteSite(id, hasher) }
		if cfg.Flood {
			newSite = func(int) netsim.SiteNode { return &floodSite{id: id, hasher: hasher} }
		}
		clients[site], err = DialSites(srv.Addrs(), router, newSite, opts)
		if err != nil {
			return nil, err
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Sites)
	for site := 0; site < cfg.Sites; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for _, a := range perSite[site] {
				if err := clients[site].Observe(a.Key, a.Slot); err != nil {
					errs <- err
					return
				}
			}
			if err := clients[site].Flush(); err != nil {
				errs <- err
			}
		}(site)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return nil, err
	}
	for site, c := range clients {
		clients[site] = nil
		if err := c.Close(); err != nil {
			return nil, err
		}
	}

	merged := srv.MergedSample(cfg.SampleSize)
	oracle := core.NewReference(cfg.SampleSize, hasher)
	oracle.ObserveAll(stream.Keys(elements))
	if !oracle.SameSample(merged) {
		return nil, fmt.Errorf("cluster: merged sample diverged from the centralized reference (shards=%d codec=%s batch=%d window=%d)",
			cfg.Shards, cfg.Codec, cfg.Batch, cfg.Window)
	}

	offers, replies, _ := srv.Stats()
	shardSamples := srv.ShardSamples()
	perShardLen := make([]int, len(shardSamples))
	for i, s := range shardSamples {
		perShardLen[i] = len(s)
	}
	est, err := DistinctCount(cfg.SampleSize, shardSamples...)
	if err != nil {
		return nil, err
	}
	return &BenchResult{
		Shards:            cfg.Shards,
		Sites:             cfg.Sites,
		SampleSize:        cfg.SampleSize,
		Codec:             cfg.Codec.String(),
		Batch:             cfg.Batch,
		Window:            cfg.Window,
		Flood:             cfg.Flood,
		Elements:          len(arrivals),
		DistinctKeys:      oracle.Distinct(),
		Seconds:           elapsed.Seconds(),
		OpsPerSec:         float64(len(arrivals)) / elapsed.Seconds(),
		Offers:            offers,
		Replies:           replies,
		MsgsPerElement:    float64(offers+replies) / float64(len(arrivals)),
		PerShardOffers:    srv.ShardStats(),
		PerShardSampleLen: perShardLen,
		MergedSampleLen:   len(merged),
		DistinctEstimate:  est.Estimate,
	}, nil
}

// ReshardBenchResult is the machine-readable outcome of one online-reshard
// benchmark run: ingest throughput before, during, and after a mid-ingest
// shard split, the cutover's cost, and (after a merge reunites the ranges)
// the proof that the merged sample still matches the centralized reference.
type ReshardBenchResult struct {
	Shards     int    `json:"shards"`
	Sites      int    `json:"sites"`
	Replicas   int    `json:"replicas"`
	SampleSize int    `json:"sample_size"`
	Codec      string `json:"codec"`
	Batch      int    `json:"batch"`
	Window     int    `json:"window"`
	Flood      bool   `json:"flood,omitempty"`
	Elements   int    `json:"elements"`
	// BeforeOpsPerSec / DuringOpsPerSec / AfterOpsPerSec are the ingest
	// throughput of the three stream thirds; the middle third absorbs the
	// concurrent split (group bring-up, warm + settle handoffs, and every
	// site's cutover flip).
	BeforeOpsPerSec float64 `json:"before_ops_per_sec"`
	DuringOpsPerSec float64 `json:"during_ops_per_sec"`
	AfterOpsPerSec  float64 `json:"after_ops_per_sec"`
	// SplitCutoverStallSec is the window from publishing the new table until
	// every site had flipped; SplitTotalSec is the whole plan. MaxSiteStallSec
	// is the largest single site's cumulative time inside cutover flips
	// (split + merge) — the per-site ingest stall resharding cost.
	SplitCutoverStallSec float64 `json:"split_cutover_stall_sec"`
	SplitTotalSec        float64 `json:"split_total_sec"`
	MergeCutoverStallSec float64 `json:"merge_cutover_stall_sec"`
	MaxSiteStallSec      float64 `json:"max_site_stall_sec"`
	// WarmEntries/SettleEntries count the sample entries the split's two
	// handoff frames carried — the entire data motion of the reshard.
	WarmEntries     int `json:"warm_entries"`
	SettleEntries   int `json:"settle_entries"`
	MergedSampleLen int `json:"merged_sample_len"`
}

// RunReshardBench measures ingest throughput across an online shard split
// and merge: cfg.Sites clients ingest the first third of the stream into a
// cfg.Shards-shard cluster of replica groups, the second third streams while
// shard slot 0's range is split live (two-phase cutover, no quiesce), the
// final third streams against the grown cluster, and then the split ranges
// are merged back. The merged sample must match the centralized reference at
// the end — a reshard that loses or duplicates offers fails the benchmark
// rather than reporting a number.
func RunReshardBench(cfg BenchConfig, replicas int, syncInterval time.Duration) (*ReshardBenchResult, error) {
	if replicas < 0 {
		replicas = 0
	}
	hasher := hashing.NewMurmur2(cfg.Seed)
	elements := dataset.Uniform(cfg.Elements, cfg.Distinct, cfg.Seed).Generate()
	arrivals := distribute.Apply(elements, distribute.NewRandom(cfg.Sites, cfg.Seed))
	perSite := make([][]stream.Arrival, cfg.Sites)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}

	router := NewShardRouter(cfg.Shards, hasher)
	srv, err := replica.Listen("127.0.0.1:0", cfg.Shards, replica.Options{
		Replicas:     replicas,
		SyncInterval: syncInterval,
		Codec:        cfg.Codec,
		RouteHash:    router.RouteHash,
	}, func(int, int) netsim.CoordinatorNode {
		return core.NewInfiniteCoordinator(cfg.SampleSize)
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	opts := wire.Options{Codec: cfg.Codec, BatchSize: cfg.Batch, Window: cfg.Window}
	clients := make([]*SiteClient, cfg.Sites)
	defer func() {
		for _, c := range clients {
			if c != nil {
				_ = c.Close()
			}
		}
	}()
	groups := srv.GroupAddrs()
	for site := 0; site < cfg.Sites; site++ {
		id := site
		newSite := func(int) netsim.SiteNode { return core.NewInfiniteSite(id, hasher) }
		if cfg.Flood {
			newSite = func(int) netsim.SiteNode { return &floodSite{id: id, hasher: hasher} }
		}
		clients[site], err = DialGroups(groups, router, newSite, opts)
		if err != nil {
			return nil, err
		}
	}
	rs := NewResharder(srv, router.Table(), cfg.Codec)
	rs.Register(clients...)

	// ingestThird replays arrivals[third] of every site concurrently and
	// flushes, returning the wall-clock spent.
	ingestThird := func(third int) (time.Duration, error) {
		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, cfg.Sites)
		for site := 0; site < cfg.Sites; site++ {
			wg.Add(1)
			go func(site int) {
				defer wg.Done()
				mine := perSite[site]
				from, to := third*len(mine)/3, (third+1)*len(mine)/3
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
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	// runPlan executes a reshard plan in the background and, once ingest has
	// drained, pumps idle clients so the cooperative cutover always
	// completes; it returns the plan's report.
	runPlan := func(plan func() (*ReshardReport, error), during func() error) (*ReshardReport, error) {
		type result struct {
			rep *ReshardReport
			err error
		}
		done := make(chan result, 1)
		go func() {
			rep, err := plan()
			done <- result{rep, err}
		}()
		if during != nil {
			if err := during(); err != nil {
				<-done // the plan goroutine must not outlive the clients
				return nil, err
			}
		}
		for {
			select {
			case r := <-done:
				return r.rep, r.err
			default:
				for _, c := range clients {
					if err := c.ApplyRouteUpdates(); err != nil {
						<-done
						return nil, err
					}
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}

	beforeDur, err := ingestThird(0)
	if err != nil {
		return nil, err
	}
	mid, err := rs.Table().SplitPoint(0, 0.5)
	if err != nil {
		return nil, err
	}
	var duringDur time.Duration
	splitRep, err := runPlan(
		func() (*ReshardReport, error) { return rs.Split(0, mid) },
		func() error {
			var derr error
			duringDur, derr = ingestThird(1)
			return derr
		},
	)
	if err != nil {
		return nil, err
	}
	afterDur, err := ingestThird(2)
	if err != nil {
		return nil, err
	}
	mergeRep, err := runPlan(func() (*ReshardReport, error) {
		return rs.MergeAt(rs.Table().RangeIndexOf(0))
	}, nil)
	if err != nil {
		return nil, err
	}

	maxStall := time.Duration(0)
	for site, c := range clients {
		clients[site] = nil
		if err := c.Close(); err != nil {
			return nil, err
		}
		if _, stall := c.ReshardStalls(); stall > maxStall {
			maxStall = stall
		}
	}
	shardSamples, err := srv.PrimarySamples()
	if err != nil {
		return nil, err
	}
	merged := Merge(cfg.SampleSize, shardSamples...)
	oracle := core.NewReference(cfg.SampleSize, hasher)
	oracle.ObserveAll(stream.Keys(elements))
	if !oracle.SameSample(merged) {
		return nil, fmt.Errorf("cluster: post-reshard merged sample diverged from the centralized reference (shards=%d replicas=%d codec=%s batch=%d window=%d)",
			cfg.Shards, replicas, cfg.Codec, cfg.Batch, cfg.Window)
	}

	third := len(arrivals) / 3
	return &ReshardBenchResult{
		Shards:               cfg.Shards,
		Sites:                cfg.Sites,
		Replicas:             replicas,
		SampleSize:           cfg.SampleSize,
		Codec:                cfg.Codec.String(),
		Batch:                cfg.Batch,
		Window:               cfg.Window,
		Flood:                cfg.Flood,
		Elements:             len(arrivals),
		BeforeOpsPerSec:      float64(third) / beforeDur.Seconds(),
		DuringOpsPerSec:      float64(third) / duringDur.Seconds(),
		AfterOpsPerSec:       float64(len(arrivals)-2*third) / afterDur.Seconds(),
		SplitCutoverStallSec: splitRep.CutoverStall.Seconds(),
		SplitTotalSec:        splitRep.Total.Seconds(),
		MergeCutoverStallSec: mergeRep.CutoverStall.Seconds(),
		MaxSiteStallSec:      maxStall.Seconds(),
		WarmEntries:          splitRep.WarmEntries,
		SettleEntries:        splitRep.SettleEntries,
		MergedSampleLen:      len(merged),
	}, nil
}

// AutopilotBenchResult is the machine-readable outcome of one autopilot
// resharding run: how long the watcher took to notice and split a hot shard
// under skewed ingest, what the control loop cost in throughput while it
// deliberated and cut over, and the proof that the automated cutover lost
// and duplicated nothing.
type AutopilotBenchResult struct {
	Shards     int    `json:"shards"`
	Sites      int    `json:"sites"`
	Replicas   int    `json:"replicas"`
	SampleSize int    `json:"sample_size"`
	Codec      string `json:"codec"`
	Batch      int    `json:"batch"`
	// Elements is one ingest round's arrival count (rounds replay the same
	// stream — redundant offers never change a bottom-s sample).
	Elements int `json:"elements"`
	// HotShare is the fraction of arrivals the hottest initial shard owns;
	// HighWatermark is the split threshold the watcher was armed with,
	// derived from HotShare so the run always has a breach to detect.
	HotShare      float64 `json:"hot_share"`
	HighWatermark float64 `json:"high_watermark"`
	// BeforeOpsPerSec is one full-stream round with the watcher off;
	// DuringOpsPerSec covers the rounds between arming the watcher and its
	// split landing (scoring, hysteresis, and the live cutover included);
	// AfterOpsPerSec is one round against the grown table.
	BeforeOpsPerSec float64 `json:"before_ops_per_sec"`
	DuringOpsPerSec float64 `json:"during_ops_per_sec"`
	AfterOpsPerSec  float64 `json:"after_ops_per_sec"`
	// RebalanceLatencySec is the arming-to-split wall clock: how long the
	// imbalance persisted before the autopilot had corrected it.
	RebalanceLatencySec float64 `json:"rebalance_latency_sec"`
	Rounds              int     `json:"rounds"`
	Ticks               uint64  `json:"ticks"`
	Splits              uint64  `json:"splits"`
	SkippedTicks        uint64  `json:"skipped_ticks"`
	TableVersion        uint64  `json:"table_version"`
	MergedSampleLen     int     `json:"merged_sample_len"`
}

// RunAutopilotBench measures hands-off rebalancing: cfg.Sites flood clients
// drive a Zipf-skewed stream into a cfg.Shards-shard cluster, the watcher is
// armed with a split watermark the hottest shard's smoothed share must
// breach, and ingest rounds repeat until the watcher has split it — no
// manual plan anywhere. The merged sample must match the centralized
// reference at the end, so every run doubles as a correctness proof of the
// watcher-initiated cutover.
func RunAutopilotBench(cfg BenchConfig, replicas int, syncInterval time.Duration) (*AutopilotBenchResult, error) {
	if replicas < 0 {
		replicas = 0
	}
	hasher := hashing.NewMurmur2(cfg.Seed)
	// Zipf 1.2 (the OC48 trace's exponent): a few keys dominate the stream,
	// so whichever shard owns them carries a sustained hot share.
	elements := dataset.Spec{
		Name: "zipf", Elements: cfg.Elements, TargetDistinct: cfg.Distinct,
		ZipfExponent: 1.2, Seed: cfg.Seed,
	}.Generate()
	arrivals := distribute.Apply(elements, distribute.NewRandom(cfg.Sites, cfg.Seed))
	perSite := make([][]stream.Arrival, cfg.Sites)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}

	router := NewShardRouter(cfg.Shards, hasher)
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
	// Arm the watermark below the measured hot share so the breach is a
	// property of the fixture, not luck; the floor keeps it a real threshold.
	const low = 0.02
	high := 0.85 * hotShare
	if high <= 2*low {
		high = 2 * low
	}

	srv, err := replica.Listen("127.0.0.1:0", cfg.Shards, replica.Options{
		Replicas:     replicas,
		SyncInterval: syncInterval,
		Codec:        cfg.Codec,
		RouteHash:    router.RouteHash,
	}, func(int, int) netsim.CoordinatorNode {
		return core.NewInfiniteCoordinator(cfg.SampleSize)
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	opts := wire.Options{
		Codec: cfg.Codec, BatchSize: cfg.Batch, Window: cfg.Window,
		RetryMax: 12, RetryBase: 2 * time.Millisecond,
	}
	clients := make([]*SiteClient, cfg.Sites)
	defer func() {
		for _, c := range clients {
			if c != nil {
				_ = c.Close()
			}
		}
	}()
	groups := srv.GroupAddrs()
	for site := 0; site < cfg.Sites; site++ {
		id := site
		// Flood mode always: the per-slot offer counters must see the
		// stream's true skew for the watcher to have a signal worth scoring.
		clients[site], err = DialGroups(groups, router, func(int) netsim.SiteNode {
			return &floodSite{id: id, hasher: hasher}
		}, opts)
		if err != nil {
			return nil, err
		}
	}
	rs := NewResharder(srv, router.Table(), cfg.Codec)
	rs.Register(clients...)

	// ingestRound replays every site's whole stream concurrently, then keeps
	// every client pumping route updates until all sites have drained — so a
	// watcher-initiated cutover always finds cooperative clients, ingesting
	// or idle.
	ingestRound := func() (time.Duration, error) {
		start := time.Now()
		opDone := make(chan struct{})
		errs := make(chan error, cfg.Sites)
		var wg sync.WaitGroup
		for site := 0; site < cfg.Sites; site++ {
			wg.Add(1)
			go func(site int) {
				defer wg.Done()
				for _, a := range perSite[site] {
					if err := clients[site].Observe(a.Key, a.Slot); err != nil {
						errs <- err
						return
					}
				}
				if err := clients[site].Flush(); err != nil {
					errs <- err
					return
				}
				for {
					select {
					case <-opDone:
						errs <- clients[site].ApplyRouteUpdates()
						return
					default:
						if err := clients[site].ApplyRouteUpdates(); err != nil {
							errs <- err
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
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	beforeDur, err := ingestRound()
	if err != nil {
		return nil, err
	}

	w := NewWatcher(rs, WatcherConfig{
		Interval:      5 * time.Millisecond,
		HighWatermark: high,
		LowWatermark:  low,
		// One plan per run: the long cooldown guarantees the watcher is idle
		// again by the time the run quiesces and stops it.
		Cooldown:  time.Hour,
		MaxShards: 2 * cfg.Shards,
	})
	armedAt := time.Now()
	w.Start()
	defer w.Stop()

	deadline := armedAt.Add(30 * time.Second)
	var duringDur time.Duration
	rounds := 0
	for w.Stats().Splits == 0 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: autopilot bench: watcher never split the hot shard (stats %+v after %d rounds, hot share %.2f, watermark %.2f)",
				w.Stats(), rounds, hotShare, high)
		}
		d, err := ingestRound()
		if err != nil {
			return nil, err
		}
		duringDur += d
		rounds++
	}
	rebalanceLatency := time.Since(armedAt)

	afterDur, err := ingestRound()
	if err != nil {
		return nil, err
	}
	w.Stop() // idle by construction (hour-long cooldown); Stop is idempotent

	for site := 0; site < cfg.Sites; site++ {
		if err := clients[site].Flush(); err != nil {
			return nil, err
		}
	}
	if err := srv.SyncNow(); err != nil {
		return nil, err
	}
	shardSamples, err := srv.PrimarySamples()
	if err != nil {
		return nil, err
	}
	merged := Merge(cfg.SampleSize, shardSamples...)
	oracle := core.NewReference(cfg.SampleSize, hasher)
	oracle.ObserveAll(stream.Keys(elements))
	if !oracle.SameSample(merged) {
		return nil, fmt.Errorf("cluster: merged sample diverged from the centralized reference after an autopilot split (shards=%d replicas=%d codec=%s)",
			cfg.Shards, replicas, cfg.Codec)
	}

	st := w.Stats()
	return &AutopilotBenchResult{
		Shards:              cfg.Shards,
		Sites:               cfg.Sites,
		Replicas:            replicas,
		SampleSize:          cfg.SampleSize,
		Codec:               cfg.Codec.String(),
		Batch:               cfg.Batch,
		Elements:            len(arrivals),
		HotShare:            hotShare,
		HighWatermark:       high,
		BeforeOpsPerSec:     float64(len(arrivals)) / beforeDur.Seconds(),
		DuringOpsPerSec:     float64(rounds*len(arrivals)) / duringDur.Seconds(),
		AfterOpsPerSec:      float64(len(arrivals)) / afterDur.Seconds(),
		RebalanceLatencySec: rebalanceLatency.Seconds(),
		Rounds:              rounds,
		Ticks:               st.Ticks,
		Splits:              st.Splits,
		SkippedTicks:        st.Skipped,
		TableVersion:        rs.Table().Version,
		MergedSampleLen:     len(merged),
	}, nil
}

// SlidingFailoverResult is the machine-readable outcome of one
// sliding-window kill-and-promote benchmark run: ingest throughput before
// and after a shard primary is killed mid-ingest, with the whole cluster
// running the sliding-window protocol — the configuration that only became
// possible when the unified Snapshot/Restore API made the sliding
// coordinator's candidate store replicable.
type SlidingFailoverResult struct {
	Shards      int     `json:"shards"`
	Sites       int     `json:"sites"`
	Replicas    int     `json:"replicas"`
	WindowSlots int64   `json:"window_slots"`
	Codec       string  `json:"codec"`
	Batch       int     `json:"batch"`
	Window      int     `json:"window"`
	Elements    int     `json:"elements"`
	Slots       int64   `json:"slots"`
	SyncMillis  float64 `json:"sync_interval_ms"`
	KilledShard int     `json:"killed_shard"`
	NewPrimary  int     `json:"new_primary"`
	// PreKillOpsPerSec and PostKillOpsPerSec are the ingest throughput of
	// the slot-range halves before and after the kill (the post-kill half
	// absorbs the detection + promotion + replay stall).
	PreKillOpsPerSec  float64 `json:"pre_kill_ops_per_sec"`
	PostKillOpsPerSec float64 `json:"post_kill_ops_per_sec"`
	Failovers         int     `json:"failovers"`
	FailoverStallSec  float64 `json:"failover_stall_sec"`
}

// RunSlidingFailoverBench measures sliding-window ingest throughput across a
// kill/promote event: cfg.Sites clients drive a slotted stream (EndSlot at
// every slot boundary so expiry-driven promotions fire) into cfg.Shards
// sliding-window replica groups, the run quiesces and kills shard 0's
// primary at the halfway slot, and the second half ingests through the
// promotion. The merged window sample must equal the brute-force window
// minimum at the end — a promotion that loses candidate-store state fails
// the benchmark rather than reporting a number.
func RunSlidingFailoverBench(cfg BenchConfig, windowSlots int64, replicas int, syncInterval time.Duration) (*SlidingFailoverResult, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("cluster: sliding failover bench needs at least one replica")
	}
	if windowSlots < 1 {
		windowSlots = 1
	}
	const perSlot = 10
	hasher := hashing.NewMurmur2(cfg.Seed)
	elements := stream.Reslot(dataset.Uniform(cfg.Elements, cfg.Distinct, cfg.Seed).Generate(), perSlot)
	arrivals := distribute.Apply(elements, distribute.NewRandom(cfg.Sites, cfg.Seed))
	stream.SortArrivals(arrivals)
	minSlot, maxSlot := arrivals[0].Slot, arrivals[len(arrivals)-1].Slot
	perSiteSlot := make([]map[int64][]string, cfg.Sites)
	for i := range perSiteSlot {
		perSiteSlot[i] = make(map[int64][]string)
	}
	for _, a := range arrivals {
		perSiteSlot[a.Site][a.Slot] = append(perSiteSlot[a.Site][a.Slot], a.Key)
	}

	router := NewShardRouter(cfg.Shards, hasher)
	srv, err := replica.Listen("127.0.0.1:0", cfg.Shards, replica.Options{
		Replicas:     replicas,
		SyncInterval: syncInterval,
		Codec:        cfg.Codec,
		RouteHash:    router.RouteHash,
	}, func(int, int) netsim.CoordinatorNode {
		return sliding.NewCoordinator()
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	opts := wire.Options{Codec: cfg.Codec, BatchSize: cfg.Batch, Window: cfg.Window}
	clients := make([]*SiteClient, cfg.Sites)
	defer func() {
		for _, c := range clients {
			if c != nil {
				_ = c.Close()
			}
		}
	}()
	groups := srv.GroupAddrs()
	for site := 0; site < cfg.Sites; site++ {
		id := site
		clients[site], err = DialGroups(groups, router, func(shard int) netsim.SiteNode {
			return sliding.NewSite(id, hasher, windowSlots, uint64(id*100+shard)+1)
		}, opts)
		if err != nil {
			return nil, err
		}
	}

	// ingestSlots drives the slot range [from, to] on every site
	// concurrently, closing out every slot, and returns the wall-clock and
	// arrival count.
	ingestSlots := func(from, to int64) (time.Duration, int, error) {
		start := time.Now()
		total := 0
		var wg sync.WaitGroup
		errs := make(chan error, cfg.Sites)
		counts := make([]int, cfg.Sites)
		for site := 0; site < cfg.Sites; site++ {
			wg.Add(1)
			go func(site int) {
				defer wg.Done()
				for slot := from; slot <= to; slot++ {
					for _, key := range perSiteSlot[site][slot] {
						if err := clients[site].Observe(key, slot); err != nil {
							errs <- err
							return
						}
						counts[site]++
					}
					if err := clients[site].EndSlot(slot); err != nil {
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
				return 0, 0, err
			}
		}
		for _, n := range counts {
			total += n
		}
		return time.Since(start), total, nil
	}

	midSlot := minSlot + (maxSlot-minSlot)/2
	preDur, preCount, err := ingestSlots(minSlot, midSlot)
	if err != nil {
		return nil, err
	}
	// Quiesce so the replica holds the primary's exact store and slot clock,
	// then kill.
	if err := srv.SyncNow(); err != nil {
		return nil, err
	}
	if _, err := srv.KillPrimary(0); err != nil {
		return nil, err
	}
	postDur, postCount, err := ingestSlots(midSlot+1, maxSlot)
	if err != nil {
		return nil, err
	}

	failovers := 0
	maxStall := time.Duration(0)
	for site, c := range clients {
		clients[site] = nil
		if err := c.Close(); err != nil {
			return nil, err
		}
		n, stall := c.Failovers()
		failovers += n
		if stall > maxStall {
			maxStall = stall
		}
	}

	// Correctness gate: merged live window sample == brute-force minimum.
	lastArrival := make(map[string]int64, cfg.Distinct)
	for _, a := range arrivals {
		if a.Slot > lastArrival[a.Key] || lastArrival[a.Key] == 0 {
			lastArrival[a.Key] = a.Slot
		}
	}
	wantKey, wantHash := "", 2.0
	for key, last := range lastArrival {
		if last <= maxSlot-windowSlots {
			continue
		}
		if h := hasher.Unit(key); h < wantHash {
			wantKey, wantHash = key, h
		}
	}
	samples, err := srv.PrimarySamples()
	if err != nil {
		return nil, err
	}
	merged := MergeWindow(maxSlot, samples...)
	if wantKey != "" && (len(merged) != 1 || merged[0].Key != wantKey) {
		return nil, fmt.Errorf("cluster: post-promotion window sample %v diverged from the brute-force minimum %q (shards=%d replicas=%d w=%d)",
			merged, wantKey, cfg.Shards, replicas, windowSlots)
	}

	return &SlidingFailoverResult{
		Shards:            cfg.Shards,
		Sites:             cfg.Sites,
		Replicas:          replicas,
		WindowSlots:       windowSlots,
		Codec:             cfg.Codec.String(),
		Batch:             cfg.Batch,
		Window:            cfg.Window,
		Elements:          len(arrivals),
		Slots:             maxSlot - minSlot + 1,
		SyncMillis:        float64(syncInterval) / float64(time.Millisecond),
		KilledShard:       0,
		NewPrimary:        srv.PrimaryIndex(0),
		PreKillOpsPerSec:  float64(preCount) / preDur.Seconds(),
		PostKillOpsPerSec: float64(postCount) / postDur.Seconds(),
		Failovers:         failovers,
		FailoverStallSec:  maxStall.Seconds(),
	}, nil
}

// FailoverResult is the machine-readable outcome of one kill-and-promote
// benchmark run: ingest throughput before and after a shard primary is
// killed mid-ingest, how long the promotion stalled the affected sites, and
// the proof that the post-promotion merged sample still matches the
// centralized reference exactly.
type FailoverResult struct {
	Shards       int     `json:"shards"`
	Sites        int     `json:"sites"`
	Replicas     int     `json:"replicas"`
	SampleSize   int     `json:"sample_size"`
	Codec        string  `json:"codec"`
	Batch        int     `json:"batch"`
	Window       int     `json:"window"`
	Flood        bool    `json:"flood,omitempty"`
	Elements     int     `json:"elements"`
	SyncMillis   float64 `json:"sync_interval_ms"`
	KilledShard  int     `json:"killed_shard"`
	KilledMember int     `json:"killed_member"`
	NewPrimary   int     `json:"new_primary"`
	// PreKillOpsPerSec and PostKillOpsPerSec are the ingest throughput of the
	// stream halves before and after the kill (the post-kill half absorbs the
	// detection + promotion + replay stall).
	PreKillOpsPerSec  float64 `json:"pre_kill_ops_per_sec"`
	PostKillOpsPerSec float64 `json:"post_kill_ops_per_sec"`
	// Failovers counts promotions across all site clients (every site
	// connected to the killed shard performs one); FailoverStallSec is the
	// largest single site's cumulative time inside failover.
	Failovers        int     `json:"failovers"`
	FailoverStallSec float64 `json:"failover_stall_sec"`
	MergedSampleLen  int     `json:"merged_sample_len"`
}

// RunFailoverBench measures ingest throughput across a kill/promote event:
// cfg.Sites clients ingest the first half of the stream into a cluster of
// cfg.Shards replica groups (each 1 primary + replicas warm standbys), the
// run quiesces (flush + forced state push, so replication is exactly caught
// up), shard 0's primary is killed, and the second half is ingested through
// the promotion. The merged sample over the surviving primaries must be
// byte-identical to the centralized reference — a kill that loses state
// fails the benchmark rather than reporting a number.
func RunFailoverBench(cfg BenchConfig, replicas int, syncInterval time.Duration) (*FailoverResult, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("cluster: failover bench needs at least one replica")
	}
	hasher := hashing.NewMurmur2(cfg.Seed)
	elements := dataset.Uniform(cfg.Elements, cfg.Distinct, cfg.Seed).Generate()
	arrivals := distribute.Apply(elements, distribute.NewRandom(cfg.Sites, cfg.Seed))
	perSite := make([][]stream.Arrival, cfg.Sites)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}

	srv, err := replica.Listen("127.0.0.1:0", cfg.Shards, replica.Options{
		Replicas:     replicas,
		SyncInterval: syncInterval,
		Codec:        cfg.Codec,
	}, func(int, int) netsim.CoordinatorNode {
		return core.NewInfiniteCoordinator(cfg.SampleSize)
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	router := NewShardRouter(cfg.Shards, hasher)
	opts := wire.Options{Codec: cfg.Codec, BatchSize: cfg.Batch, Window: cfg.Window}
	clients := make([]*SiteClient, cfg.Sites)
	defer func() {
		for _, c := range clients {
			if c != nil {
				_ = c.Close()
			}
		}
	}()
	groups := srv.GroupAddrs()
	for site := 0; site < cfg.Sites; site++ {
		id := site
		newSite := func(int) netsim.SiteNode { return core.NewInfiniteSite(id, hasher) }
		if cfg.Flood {
			newSite = func(int) netsim.SiteNode { return &floodSite{id: id, hasher: hasher} }
		}
		clients[site], err = DialGroups(groups, router, newSite, opts)
		if err != nil {
			return nil, err
		}
	}

	// ingestHalf replays arrivals[from:to) of every site concurrently and
	// flushes, returning the wall-clock spent.
	ingestHalf := func(half int) (time.Duration, error) {
		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, cfg.Sites)
		for site := 0; site < cfg.Sites; site++ {
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
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	preDur, err := ingestHalf(0)
	if err != nil {
		return nil, err
	}
	// Quiesce: every offer is acknowledged, and one forced sync round makes
	// every replica byte-identical to its primary. This bounds what the kill
	// can lose to exactly nothing — everything after it is either replayed by
	// the sites or ingested by the new primary directly.
	if err := srv.SyncNow(); err != nil {
		return nil, err
	}
	killed, err := srv.KillPrimary(0)
	if err != nil {
		return nil, err
	}
	postDur, err := ingestHalf(1)
	if err != nil {
		return nil, err
	}
	failovers := 0
	maxStall := time.Duration(0)
	for site, c := range clients {
		clients[site] = nil
		if err := c.Close(); err != nil {
			return nil, err
		}
		n, stall := c.Failovers()
		failovers += n
		if stall > maxStall {
			maxStall = stall
		}
	}

	shardSamples, err := srv.PrimarySamples()
	if err != nil {
		return nil, err
	}
	merged := Merge(cfg.SampleSize, shardSamples...)
	oracle := core.NewReference(cfg.SampleSize, hasher)
	oracle.ObserveAll(stream.Keys(elements))
	if !oracle.SameSample(merged) {
		return nil, fmt.Errorf("cluster: post-promotion merged sample diverged from the centralized reference (shards=%d replicas=%d codec=%s batch=%d window=%d)",
			cfg.Shards, replicas, cfg.Codec, cfg.Batch, cfg.Window)
	}

	return &FailoverResult{
		Shards:            cfg.Shards,
		Sites:             cfg.Sites,
		Replicas:          replicas,
		SampleSize:        cfg.SampleSize,
		Codec:             cfg.Codec.String(),
		Batch:             cfg.Batch,
		Window:            cfg.Window,
		Flood:             cfg.Flood,
		Elements:          len(arrivals),
		SyncMillis:        float64(syncInterval) / float64(time.Millisecond),
		KilledShard:       0,
		KilledMember:      killed,
		NewPrimary:        srv.PrimaryIndex(0),
		PreKillOpsPerSec:  float64(len(arrivals)/2) / preDur.Seconds(),
		PostKillOpsPerSec: float64(len(arrivals)-len(arrivals)/2) / postDur.Seconds(),
		Failovers:         failovers,
		FailoverStallSec:  maxStall.Seconds(),
		MergedSampleLen:   len(merged),
	}, nil
}
