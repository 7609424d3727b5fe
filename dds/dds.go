// Package dds is the public API of the distributed distinct sampler: a
// client for ingesting streams into (and querying) a sharded, replicated
// coordinator cluster, and an embeddable server for running one.
//
// The system maintains a uniform random sample of the distinct elements of a
// stream observed by many distributed sites, with communication logarithmic
// in the stream length (Tirthapura & Woodruff's distributed distinct
// sampling), either over the whole stream (infinite window) or over the last
// w time slots (sliding window, WithWindow). The coordinator-side state is a
// bottom-s sketch — tiny, exactly mergeable, and capturable as one versioned
// snapshot — which is what makes sharding exact, replication one frame, and
// resharding a live operation.
//
// A minimal deployment embeds both halves:
//
//	cluster, err := dds.Serve(ctx, dds.Config{Listen: "127.0.0.1:0", Shards: 2, SampleSize: 32})
//	client, err := dds.Open(ctx, dds.Config{Coordinators: cluster.Groups(), SampleSize: 32})
//	client.Offer("user-123", 0)
//	sample, err := client.Query(ctx)
//
// Clients and servers must agree on SampleSize, Seed, and the window; see
// Config. A Client is not safe for concurrent use — one goroutine (or
// external serialization) per Client, exactly like the underlying transport.
package dds

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/estimate"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/sliding"
	"repro/internal/wire"
)

// DefaultSeed is the hash-function seed used when Config.Seed is zero. All
// nodes of one deployment must share a seed: the sample is defined by the
// hash function, and the shard partition is derived from it.
const DefaultSeed = 20130501

// DefaultSampleSize is the sample size used when Config.SampleSize is zero.
const DefaultSampleSize = 20

// Codec names a wire encoding. CodecBinary is the only one; the type and
// WithCodec stay so that callers naming it keep compiling.
type Codec string

// CodecBinary is the length-prefixed binary encoding, the only one and the
// default.
const CodecBinary Codec = "binary"

// ErrDeposed reports an epoch fence: the coordinator a state push or sync
// targeted has been promoted past the sender's epoch, so the sender is (or
// was talking to) a deposed primary. Detect it with errors.Is.
var ErrDeposed = wire.ErrDeposed

// ErrStaleRoute reports a route-version fence: the peer has already applied
// a newer routing table than the operation was stamped with. Detect it with
// errors.Is.
var ErrStaleRoute = wire.ErrStaleRoute

// ErrLeaseLapsed reports a lease fence: the primary an offer targeted has
// not had its lease renewed by a replication quorum and refuses to ingest
// until renewal or promotion. Clients heal it automatically (WithRetry);
// detect it with errors.Is when driving the transport directly.
var ErrLeaseLapsed = wire.ErrLeaseLapsed

// ErrNotSnapshottable reports that a coordinator node refused a
// state-snapshot operation because it predates the Snapshot/Restore API
// (legacy simulation nodes; every built-in dds coordinator — the per-copy
// sliding-window one included — supports snapshots). Replica attach, backup
// (Client.Snapshot), and reshard handoffs all surface it; detect it with
// errors.Is.
var ErrNotSnapshottable = wire.ErrNotSnapshottable

// Config carries the identity and topology shared by Open, Query, and
// Serve. Transport and replication knobs are set through Options.
type Config struct {
	// Coordinators lists the cluster's shard groups, slot-indexed: one inner
	// slice per shard, each the shard's replica-group member addresses in
	// promotion order (primary first). Retired slots may be nil. Clients
	// dial every routed slot; WithAdmin can populate this (and the live
	// routing table) from a running cluster's admin listener instead.
	Coordinators [][]string
	// SiteID identifies this client among the k monitoring sites.
	SiteID int
	// SampleSize is s, the distinct-sample size — per shard and at query
	// time. Every node of a deployment must use the same value. Zero means
	// DefaultSampleSize.
	SampleSize int
	// Seed seeds the shared hash function. Zero means DefaultSeed.
	Seed uint64
	// Listen is the server's base listen address (Serve only). Shard c
	// member m binds port + c*(replicas+1) + m; port 0 gives every member an
	// ephemeral port.
	Listen string
	// Shards is the number of coordinator shards (Serve only). Zero means 1.
	Shards int

	codec        Codec
	window       int64
	batch        int
	pipeline     int
	replicas     int
	syncInterval time.Duration
	lease        time.Duration
	retryMax     int
	retryBase    time.Duration
	admin        string

	autoReshard   bool
	watchHigh     float64
	watchLow      float64
	watchCooldown time.Duration
	watchInterval time.Duration
	churnWeight   float64

	dataDir      string
	snapInterval time.Duration
	snapRetain   int

	traceSample    float64
	traceSampleSet bool
}

// Option configures transport, window, and replication behavior for Open,
// Query, and Serve.
type Option func(*Config)

// WithCodec selects the wire encoding. CodecBinary is the only one, and any
// other name fails Open, Query and Serve.
func WithCodec(c Codec) Option { return func(cfg *Config) { cfg.codec = c } }

// WithWindow switches the deployment to the sliding-window protocol: the
// sample covers the distinct elements whose most recent arrival lies within
// the last slots time slots. Zero (the default) is the infinite window.
// Every node of a deployment must use the same window.
func WithWindow(slots int64) Option { return func(cfg *Config) { cfg.window = slots } }

// WithBatch makes the client buffer up to n offers per batch frame
// (default 1: one request/response per offer). Batching amortizes syscalls
// and encoding; slot boundaries still flush exactly.
func WithBatch(n int) Option { return func(cfg *Config) { cfg.batch = n } }

// WithPipelining lets up to depth batch frames stream per connection before
// their replies come back (credit-window backpressure; default 0: fully
// synchronous). Depth must be at least 2 to pipeline; try 8.
func WithPipelining(depth int) Option { return func(cfg *Config) { cfg.pipeline = depth } }

// WithReplicas gives every shard r warm replicas (Serve only; default 0).
// Each primary pushes its full state to its replicas as one snapshot frame
// per sync interval, and clients fail over to a replica when a primary dies.
func WithReplicas(r int) Option { return func(cfg *Config) { cfg.replicas = r } }

// WithSyncInterval sets how often each primary's state is pushed to its
// replicas (Serve only; default 100ms). It bounds replica staleness.
func WithSyncInterval(d time.Duration) Option { return func(cfg *Config) { cfg.syncInterval = d } }

// WithLease arms lease-based fencing (Serve only; default 0: disabled).
// Each primary holds a time-bounded lease renewed every sync round by a
// quorum of its replica group; a primary that cannot reach a quorum — it is
// partitioned, or deposed by a promotion it never saw — stops accepting
// offers with ErrLeaseLapsed when the lease runs down, instead of ingesting
// into state nobody replicates. The lease must exceed the sync interval
// (a healthy primary renews once per round) and requires WithReplicas.
func WithLease(d time.Duration) Option { return func(cfg *Config) { cfg.lease = d } }

// WithRetry sets the client's recovery policy (Open only): at most max
// retries per operation against a lease-fenced primary, backing off
// exponentially from base with jitter before each, then promoting the next
// replica-group member. Zeros take the defaults (5 retries from 5ms);
// max < 0 disables lease waiting, so the first fence triggers promotion.
func WithRetry(max int, base time.Duration) Option {
	return func(cfg *Config) { cfg.retryMax = max; cfg.retryBase = base }
}

// WithTraceSampling sets the process-wide trace sample rate: the fraction of
// ingest batches (and control-plane operations) that record a full
// cross-plane span timeline, browsable at the metrics listener's
// /debug/traces. 0 (the default) disables tracing — the decision then costs
// one atomic load and the unsampled hot path allocates nothing. 1 traces
// everything; production deployments typically run 0.01 or lower. The rate
// is a process-wide setting shared by every Client and Cluster in the
// process; the last Open or Serve that used this option wins.
func WithTraceSampling(rate float64) Option {
	return func(cfg *Config) { cfg.traceSample = rate; cfg.traceSampleSet = true }
}

// WithAutoReshard arms autopilot resharding (Serve only; default off): a
// background watcher scores per-shard load shares from the live metrics
// registry's counter deltas and executes split/merge plans through the
// reshard driver — with hysteresis, so noisy load cannot thrash the table.
// A shard whose smoothed load share sustains above high is split; the
// coldest adjacent range pair whose combined share sustains below low is
// merged; after any plan the watcher stands down for cooldown and relearns
// the distribution from scratch. Zeros take the defaults (high 0.65, low
// 0.15, cooldown 8 ticks); explicit values must satisfy 0 < low < high < 1.
// The watcher observes decisions in dds_watcher_plans_total{op=...} and
// dds_watcher_skipped_total{reason=...}, and reports through the admin stats
// verb (Client.Stats / AdminStats).
func WithAutoReshard(high, low float64, cooldown time.Duration) Option {
	return func(cfg *Config) {
		cfg.autoReshard = true
		cfg.watchHigh = high
		cfg.watchLow = low
		cfg.watchCooldown = cooldown
	}
}

// WithWatchInterval sets the autopilot watcher's scoring tick (Serve only;
// default 250ms). Requires WithAutoReshard. Shorter ticks react faster but
// score noisier intervals; the EWMA and sustain hysteresis absorb most of
// the noise either way.
func WithWatchInterval(d time.Duration) Option {
	return func(cfg *Config) { cfg.watchInterval = d }
}

// WithChurnWeight scales sample-churn counter deltas relative to offer
// deltas in the autopilot's load scoring (Serve only; requires
// WithAutoReshard). Offers measure arrival pressure; churn measures how much
// of it actually reshapes the sketch. Weights above 1 bias splits toward
// shards whose samples are actively churning; negative ignores churn
// entirely; 0 (the default) keeps the historical equal fold.
func WithChurnWeight(w float64) Option { return func(cfg *Config) { cfg.churnWeight = w } }

// WithDataDir arms the durability subsystem (Serve only): every shard
// primary spools atomic, self-describing snapshots of its full state into
// dir on an interval and at natural barriers (promotion, reshard cutover,
// graceful Close), and a Serve against a non-empty dir cold-starts by
// restoring the newest valid snapshot per shard and rejoining under the
// persisted route table. Corrupt or torn files are skipped, never fatal.
// The directory must not be shared by two live clusters.
func WithDataDir(dir string) Option { return func(cfg *Config) { cfg.dataDir = dir } }

// WithSnapInterval sets the background snapshot cadence (Serve only; default
// 1s; requires WithDataDir). A shard that saw no offers and no promotion
// since its last snapshot spools nothing, so an idle cluster writes nothing.
// The interval bounds the power-loss window: offers acknowledged after the
// last spool are lost on an ungraceful full-cluster kill and must be
// replayed by clients, exactly like a failover's unacked window.
func WithSnapInterval(d time.Duration) Option { return func(cfg *Config) { cfg.snapInterval = d } }

// WithSnapRetain keeps the newest k snapshots per shard, pruning older ones
// after each spool (Serve only; default 3; requires WithDataDir). Retention
// beyond 1 is what lets restore fall back past a torn newest file.
func WithSnapRetain(k int) Option { return func(cfg *Config) { cfg.snapRetain = k } }

// WithAdmin names a cluster admin listener. For Serve it is the address to
// serve resharding commands on; for Open and Query it is where to fetch the
// live routing table and shard groups, replacing Config.Coordinators — a
// client joining after a reshard then adopts the real partition instead of
// assuming the uniform one.
func WithAdmin(addr string) Option { return func(cfg *Config) { cfg.admin = addr } }

// Entry is one element of a sample: the element's key, its unit hash under
// the deployment's shared hash function, and — in sliding-window mode — the
// last slot at which it is still inside the window.
type Entry struct {
	Key    string  `json:"key"`
	Hash   float64 `json:"hash"`
	Expiry int64   `json:"expiry,omitempty"`
}

// Sample is a distinct sample in ascending hash order.
type Sample []Entry

// Keys returns the sampled keys in ascending hash order.
func (s Sample) Keys() []string {
	keys := make([]string, len(s))
	for i, e := range s {
		keys[i] = e.Key
	}
	return keys
}

// Estimate is a distinct-count estimate with a ~95% confidence interval.
type Estimate struct {
	// Count is the estimated number of distinct elements.
	Count float64 `json:"count"`
	// Low and High bound the ~95% confidence interval.
	Low  float64 `json:"low"`
	High float64 `json:"high"`
	// Exact reports that the sample held the whole distinct population, so
	// Count is exact rather than estimated.
	Exact bool `json:"exact,omitempty"`
}

// ShardState is one shard's full coordinator state, captured as a versioned,
// self-describing snapshot blob (the same encoding replication and reshard
// handoff frames carry). It is the backup primitive: the blob round-trips
// the shard's entire protocol state, sliding-window candidate stores
// included.
type ShardState struct {
	// Slot is the shard's stable slot index.
	Slot int `json:"slot"`
	// Data is the encoded snapshot.
	Data []byte `json:"data"`
}

// normalize applies defaults and options, returning an error for
// contradictory settings.
func (cfg Config) normalize(opts []Option) (Config, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.SampleSize == 0 {
		cfg.SampleSize = DefaultSampleSize
	}
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
	if cfg.codec == "" {
		cfg.codec = CodecBinary
	}
	if cfg.batch == 0 {
		cfg.batch = 1
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.syncInterval == 0 {
		cfg.syncInterval = 100 * time.Millisecond
	}
	if cfg.autoReshard {
		if cfg.watchHigh == 0 {
			cfg.watchHigh = 0.65
		}
		if cfg.watchLow == 0 {
			cfg.watchLow = 0.15
		}
	}
	if cfg.dataDir != "" {
		if cfg.snapInterval == 0 {
			cfg.snapInterval = replica.DefaultSpoolInterval
		}
		if cfg.snapRetain == 0 {
			cfg.snapRetain = durable.DefaultRetain
		}
	}
	switch {
	case cfg.codec != CodecBinary:
		return cfg, fmt.Errorf("dds: unknown codec %q (want %q)", cfg.codec, CodecBinary)
	case cfg.SampleSize < 1:
		return cfg, fmt.Errorf("dds: sample size %d must be at least 1", cfg.SampleSize)
	case cfg.window < 0:
		return cfg, fmt.Errorf("dds: window %d must not be negative", cfg.window)
	case cfg.batch < 1:
		return cfg, fmt.Errorf("dds: batch size %d must be at least 1", cfg.batch)
	case cfg.pipeline < 0 || cfg.pipeline == 1:
		return cfg, fmt.Errorf("dds: pipelining depth %d is not a pipeline; use 0 to disable or at least 2 to stream", cfg.pipeline)
	case cfg.replicas < 0:
		return cfg, fmt.Errorf("dds: replica count %d must not be negative", cfg.replicas)
	case cfg.Shards < 1:
		return cfg, fmt.Errorf("dds: shard count %d must be at least 1", cfg.Shards)
	case cfg.lease < 0:
		return cfg, fmt.Errorf("dds: lease %v must not be negative", cfg.lease)
	case cfg.lease > 0 && cfg.lease <= cfg.syncInterval:
		return cfg, fmt.Errorf("dds: lease %v must exceed the sync interval %v (a healthy primary renews once per round)", cfg.lease, cfg.syncInterval)
	case cfg.lease > 0 && cfg.replicas < 1:
		return cfg, fmt.Errorf("dds: lease fencing needs replicas (the lease is renewed by quorum acks); set WithReplicas")
	case cfg.retryBase < 0:
		return cfg, fmt.Errorf("dds: retry base %v must not be negative", cfg.retryBase)
	case cfg.traceSample < 0 || cfg.traceSample > 1:
		return cfg, fmt.Errorf("dds: trace sample rate %v must be in [0, 1]", cfg.traceSample)
	case !cfg.autoReshard && (cfg.watchHigh != 0 || cfg.watchLow != 0 || cfg.watchCooldown != 0 || cfg.watchInterval != 0 || cfg.churnWeight != 0):
		return cfg, errors.New("dds: watcher tuning set without WithAutoReshard")
	case cfg.dataDir == "" && (cfg.snapInterval != 0 || cfg.snapRetain != 0):
		return cfg, errors.New("dds: snapshot tuning set without WithDataDir")
	case cfg.snapInterval < 0:
		return cfg, fmt.Errorf("dds: snapshot interval %v must not be negative", cfg.snapInterval)
	case cfg.snapRetain < 0:
		return cfg, fmt.Errorf("dds: snapshot retention %d must not be negative", cfg.snapRetain)
	case cfg.autoReshard && (cfg.watchHigh >= 1 || cfg.watchHigh < 0 || cfg.watchLow < 0):
		return cfg, fmt.Errorf("dds: autoreshard watermarks high=%v low=%v must lie in (0, 1)", cfg.watchHigh, cfg.watchLow)
	case cfg.autoReshard && cfg.watchLow >= cfg.watchHigh:
		return cfg, fmt.Errorf("dds: autoreshard low watermark %v must be below the high watermark %v", cfg.watchLow, cfg.watchHigh)
	case cfg.autoReshard && (cfg.watchCooldown < 0 || cfg.watchInterval < 0):
		return cfg, fmt.Errorf("dds: autoreshard cooldown %v and interval %v must not be negative", cfg.watchCooldown, cfg.watchInterval)
	}
	return cfg, nil
}

func (cfg *Config) wireOptions() wire.Options {
	return wire.Options{
		BatchSize: cfg.batch,
		Window:    cfg.pipeline,
		RetryMax:  cfg.retryMax,
		RetryBase: cfg.retryBase,
	}
}

func (cfg *Config) hasher() hashing.UnitHasher { return hashing.NewMurmur2(cfg.Seed) }

// resolveTopology returns the routing table and groups a client should dial:
// the admin listener's live view when WithAdmin is set, Config.Coordinators
// under the uniform partition otherwise.
func resolveTopology(ctx context.Context, cfg *Config) (*cluster.ShardRouter, [][]string, error) {
	hasher := cfg.hasher()
	if cfg.admin != "" {
		status, err := adminRoundTrip(ctx, cfg.admin, adminRequest{Op: "table"})
		if err != nil {
			return nil, nil, fmt.Errorf("dds: fetch topology from admin %s: %w", cfg.admin, err)
		}
		table := cluster.RangeTable{Version: status.Version, Bounds: status.Bounds, Slots: status.Slots}
		router, err := cluster.NewRangeRouter(table, hasher)
		if err != nil {
			return nil, nil, fmt.Errorf("dds: admin topology: %w", err)
		}
		return router, status.Groups, nil
	}
	if len(cfg.Coordinators) == 0 {
		return nil, nil, errors.New("dds: no coordinators configured (set Config.Coordinators or WithAdmin)")
	}
	return cluster.NewShardRouter(len(cfg.Coordinators), hasher), cfg.Coordinators, nil
}

// Client ingests one site's stream into the cluster and answers queries
// against it. It is not safe for concurrent use. After Close, Offer, EndSlot
// and Flush fail with an error wrapping net.ErrClosed.
type Client struct {
	cfg    Config
	router *cluster.ShardRouter
	sc     *cluster.SiteClient
	// lastSlot tracks the newest slot this client has seen, the clock
	// sliding-window queries evaluate expiry against.
	lastSlot int64
	closed   bool
}

// Open connects a site client to every shard of the cluster and returns it.
// The context bounds the dial phase: cancellation abandons the connection
// attempt (any connections already made are closed in the background).
func Open(ctx context.Context, cfg Config, opts ...Option) (*Client, error) {
	cfg, err := cfg.normalize(opts)
	if err != nil {
		return nil, err
	}
	if cfg.traceSampleSet {
		obs.SetTraceSampleRate(cfg.traceSample)
	}
	router, groups, err := resolveTopology(ctx, &cfg)
	if err != nil {
		return nil, err
	}
	// The sites filter with the router's own hasher, so each arrival is
	// hashed once: the digest that picks the shard feeds the site's filter.
	hasher := router.Hasher()
	newSite := func(shard int) netsim.SiteNode {
		if cfg.window > 0 {
			return sliding.NewSite(cfg.SiteID, hasher, cfg.window, uint64(cfg.SiteID*1000+shard)+1)
		}
		return core.NewInfiniteSite(cfg.SiteID, hasher)
	}
	type dialed struct {
		sc  *cluster.SiteClient
		err error
	}
	done := make(chan dialed, 1)
	go func() {
		sc, err := cluster.DialGroups(groups, router, newSite, cfg.wireOptions())
		done <- dialed{sc, err}
	}()
	select {
	case d := <-done:
		if d.err != nil {
			return nil, fmt.Errorf("dds: open: %w", d.err)
		}
		return &Client{cfg: cfg, router: router, sc: d.sc}, nil
	case <-ctx.Done():
		go func() {
			if d := <-done; d.err == nil {
				_ = d.sc.Close()
			}
		}()
		return nil, ctx.Err()
	}
}

// Offer feeds one element observation at the given time slot to the
// sampler. The protocol decides whether anything is sent: most offers cost
// no communication at all.
func (c *Client) Offer(key string, slot int64) error {
	if c.closed {
		return errClosed
	}
	if slot > c.lastSlot {
		c.lastSlot = slot
	}
	return c.sc.Observe(key, slot)
}

// EndSlot closes time slot slot: buffered offers flush, and sliding-window
// sites run their expiry-driven promotions. Call it once per slot boundary
// in sliding-window mode; it is harmless (a flush) otherwise.
func (c *Client) EndSlot(slot int64) error {
	if c.closed {
		return errClosed
	}
	if slot > c.lastSlot {
		c.lastSlot = slot
	}
	return c.sc.EndSlot(slot)
}

// Flush ships every buffered offer and drains the pipeline window. On
// return, every offer this client ever accepted has been acknowledged by a
// live coordinator.
func (c *Client) Flush() error {
	if c.closed {
		return errClosed
	}
	return c.sc.Flush()
}

// errClosed is what ingest calls on a closed Client return.
var errClosed = fmt.Errorf("dds: client is closed: %w", net.ErrClosed)

// Query returns the cluster-wide distinct sample: the per-shard samples
// merged into the exact global bottom-s (or, in sliding-window mode, the
// window sample — the minimum-hash element currently inside the window,
// read from each shard's full snapshot so a shard with a lagging slot clock
// cannot hide live candidates behind an expired minimum). Queries follow
// reshards: they target the groups the client currently routes to.
func (c *Client) Query(ctx context.Context) (Sample, error) {
	return queryCtx(ctx, &c.cfg, c.sc.Groups(), c.lastSlot)
}

// Estimate derives the KMV distinct-count estimate from a whole-stream
// sample of the given size: the number of distinct elements in the sampled
// stream, with a ~95% confidence interval. The estimate is a pure function
// of the sample — no further cluster round trips.
func (s Sample) Estimate(sampleSize int) (Estimate, error) {
	if sampleSize < 1 {
		return Estimate{}, fmt.Errorf("dds: sample size %d must be at least 1", sampleSize)
	}
	entries := make([]netsim.SampleEntry, len(s))
	for i, e := range s {
		entries[i] = netsim.SampleEntry{Key: e.Key, Hash: e.Hash, Expiry: e.Expiry}
	}
	iv, err := estimate.DistinctCount(entries, sampleSize, cluster.MergedThreshold(entries, sampleSize))
	if err != nil {
		return Estimate{}, fmt.Errorf("dds: estimate: %w", err)
	}
	return Estimate{Count: iv.Estimate, Low: iv.Low, High: iv.High, Exact: len(entries) < sampleSize}, nil
}

// Estimate returns the estimated number of distinct elements in the stream
// (whole-stream mode only), with a ~95% confidence interval: one Query plus
// the sample-local Sample.Estimate. When the population is smaller than the
// sample size the count is exact.
func (c *Client) Estimate(ctx context.Context) (Estimate, error) {
	if c.cfg.window > 0 {
		return Estimate{}, errors.New("dds: distinct-count estimation applies to the infinite window only")
	}
	sample, err := c.Query(ctx)
	if err != nil {
		return Estimate{}, err
	}
	return sample.Estimate(c.cfg.SampleSize)
}

// Snapshot captures every live shard's full coordinator state as one
// versioned snapshot blob per shard — the whole cluster's protocol state,
// sliding-window candidate stores included. The blobs are what replication
// and handoff frames carry; persist them as a backup.
func (c *Client) Snapshot(ctx context.Context) ([]ShardState, error) {
	var out []ShardState
	for slot, members := range c.sc.Groups() {
		if len(members) == 0 {
			continue // retired by resharding
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st, err := snapshotGroup(ctx, members)
		if err != nil {
			return nil, fmt.Errorf("dds: snapshot shard %d: %w", slot, err)
		}
		out = append(out, ShardState{Slot: slot, Data: core.EncodeState(st)})
	}
	return out, nil
}

// Backup captures a point-in-time backup of the whole cluster into dir: one
// snapshot file per live shard (the same atomic, checksummed format the
// durability spool writes) plus a manifest recording the routing table the
// shards were captured under. The directory restores with RestoreCluster —
// or by pointing any Serve at it via WithDataDir.
//
// Shards are snapshotted one at a time, not at one instant: keys offered
// while the backup walks the shards may or may not be captured, exactly like
// the spool window. Everything acknowledged before Backup started is in.
func (c *Client) Backup(ctx context.Context, dir string) error {
	sp, err := durable.Open(dir, durable.DefaultRetain)
	if err != nil {
		return fmt.Errorf("dds: backup: %w", err)
	}
	table := c.sc.Table()
	for slot, members := range c.sc.Groups() {
		if len(members) == 0 {
			continue // retired by resharding
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		st, err := snapshotGroup(ctx, members)
		if err != nil {
			return fmt.Errorf("dds: backup shard %d: %w", slot, err)
		}
		if _, err := sp.WriteSnapshot(slot, 0, table.Version, st); err != nil {
			return fmt.Errorf("dds: backup shard %d: %w", slot, err)
		}
	}
	// The manifest is the backup's commit point: a restore ignores snapshot
	// files its manifest's table does not route to.
	if err := sp.WriteManifest(cluster.TableManifest(table, c.cfg.SampleSize, c.cfg.window, c.cfg.Seed)); err != nil {
		return fmt.Errorf("dds: backup: %w", err)
	}
	return nil
}

// Close flushes buffered offers, drains the pipeline, and closes every
// shard connection. A clean Close means every offer reached a live
// coordinator.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.sc.Close()
}

// Query answers a one-shot cluster query without opening an ingest client:
// the merged distinct sample across the configured (or admin-fetched) shard
// groups. In sliding-window mode, pass the current slot as asOf to evaluate
// expiry; whole-stream callers use Query(ctx, cfg).
func Query(ctx context.Context, cfg Config, opts ...Option) (Sample, error) {
	return QueryAsOf(ctx, 0, cfg, opts...)
}

// QueryAsOf is Query with an explicit slot clock for sliding-window
// deployments: only elements still live at slot asOf count.
func QueryAsOf(ctx context.Context, asOf int64, cfg Config, opts ...Option) (Sample, error) {
	cfg, err := cfg.normalize(opts)
	if err != nil {
		return nil, err
	}
	_, groups, err := resolveTopology(ctx, &cfg)
	if err != nil {
		return nil, err
	}
	return queryCtx(ctx, &cfg, groups, asOf)
}

// queryCtx runs the cluster query under a context: the merged bottom-s
// sample, or with a window the snapshot-based window sample as of slot asOf.
// Cancellation abandons the wait (the underlying fan-out finishes in the
// background).
func queryCtx(ctx context.Context, cfg *Config, groups [][]string, asOf int64) (Sample, error) {
	type result struct {
		entries []netsim.SampleEntry
		err     error
	}
	windowed, size := cfg.window > 0, cfg.SampleSize
	done := make(chan result, 1)
	go func() {
		var r result
		if windowed {
			r.entries, r.err = cluster.QueryWindowGroups(groups, asOf, wire.CodecBinary)
		} else {
			r.entries, r.err = cluster.QueryGroups(groups, size, wire.CodecBinary)
		}
		done <- r
	}()
	select {
	case r := <-done:
		if r.err != nil {
			return nil, fmt.Errorf("dds: query: %w", r.err)
		}
		return toSample(r.entries), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// snapshotGroup fetches one shard's state via the shared primary-resolution
// walk: the current primary (probed by epoch) preferred, any live member —
// whose state is at most one sync interval stale — as fallback.
func snapshotGroup(ctx context.Context, members []string) (core.State, error) {
	if err := ctx.Err(); err != nil {
		return core.State{}, err
	}
	var st core.State
	err := cluster.WithGroupPrimary(members, wire.CodecBinary, func(addr string) error {
		s, err := wire.SnapshotAddr(addr, wire.CodecBinary)
		if err == nil {
			st = s
		}
		return err
	})
	return st, err
}

func toSample(entries []netsim.SampleEntry) Sample {
	out := make(Sample, len(entries))
	for i, e := range entries {
		out[i] = Entry{Key: e.Key, Hash: e.Hash, Expiry: e.Expiry}
	}
	return out
}
