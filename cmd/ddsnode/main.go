// Command ddsnode runs one node of a real (non-simulated) deployment of the
// distinct sampler over TCP, built on the public dds package: a coordinator
// cluster (sharded, optionally replicated, infinite- or sliding-window), a
// standalone warm replica, a site replaying a stream file, a one-shot query
// client, or a reshard admin client. Stream files use the "slot<TAB>key"
// format produced by cmd/ddsgen.
//
// A complete single-coordinator deployment in three terminals:
//
//	ddsnode -role coordinator -listen 127.0.0.1:7070 -sample 20
//	ddsgen  -dataset enron -scale 0.01 -out enron.tsv
//	ddsnode -role site -id 0 -coordinator 127.0.0.1:7070 -stream enron.tsv
//	ddsnode -role query -coordinator 127.0.0.1:7070
//
// A 4-shard cluster with pipelined batched ingest (shard c listens on
// port 7070+c; -pipeline 8 lets up to 8 batch frames stream per connection):
//
//	ddsnode -role cluster-coordinator -shards 4 -listen 127.0.0.1:7070 -sample 20
//	ddsnode -role site -id 0 -coordinator 127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073 \
//	        -batch 64 -pipeline 8 -stream enron.tsv
//	ddsnode -role query -sample 20 -coordinator 127.0.0.1:7070,...
//
// With -replicas R > 0 every shard becomes a replica group of 1 + R members
// on consecutive ports (shard c member m binds port + c*(R+1) + m); sites
// and query clients list a shard's members separated by "/" (shards stay
// comma-separated) and fail over automatically when a primary dies. Since
// the unified Snapshot/Restore API, replication works for BOTH windows: a
// sliding-window cluster (-window W) replicates its candidate stores and
// slot clocks through the same generic state frames.
//
//	ddsnode -role cluster-coordinator -shards 2 -replicas 1 -window 100 -listen 127.0.0.1:7070
//
// With -admin ADDR the cluster also serves resharding commands; -role
// reshard triggers an online split or merge, and sites/queries started with
// -admin fetch the live (post-reshard) table and groups instead of assuming
// the uniform partition:
//
//	ddsnode -role cluster-coordinator -shards 2 -replicas 1 -admin 127.0.0.1:7069 -listen 127.0.0.1:7070
//	ddsnode -role reshard -admin 127.0.0.1:7069 -split 0        # split slot 0 at its range midpoint
//	ddsnode -role reshard -admin 127.0.0.1:7069 -split 0:0.25   # split at a quarter of the range
//	ddsnode -role reshard -admin 127.0.0.1:7069 -merge-range 0  # merge range 0 with its right neighbour
//	ddsnode -role site -id 0 -admin 127.0.0.1:7069 -stream enron.tsv
//
// With -data-dir DIR the coordinator spools atomic per-shard snapshots under
// DIR and restores from them at the next boot — a SIGKILL'd cluster restarted
// with the same -data-dir comes back warm with its last spooled sample and
// route table, and replaying sites repair whatever the final snapshot missed
// (offers are idempotent):
//
//	ddsnode -role cluster-coordinator -shards 2 -data-dir /var/lib/dds \
//	        -snap-interval 500ms -snap-retain 5 -listen 127.0.0.1:7070
//
// All nodes of one deployment must share -hash-seed, -sample, and -window.
// (-window is the sliding-window length in slots, a protocol parameter;
// -pipeline is the transport's batch-frames-in-flight credit window.)
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/dds"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sliding"
	"repro/internal/stream"
	"repro/internal/wire"
)

// nodeFlags carries every parsed flag, so validation is a pure function the
// tests can table-drive.
type nodeFlags struct {
	Role         string
	Listen       string
	Coordinator  string
	Shards       int
	Replicas     int
	SyncInterval time.Duration
	Lease        time.Duration
	RetryMax     int
	RetryBase    time.Duration
	ID           int
	Sample       int
	Window       int64
	Stream       string
	HashSeed     uint64
	Batch        int
	Pipeline     int
	Admin        string
	Split        string
	MergeRange   int
	Metrics      string
	Scrape       string
	Require      string
	TraceSample  float64

	AutoReshard   bool
	WatchHigh     float64
	WatchLow      float64
	WatchCooldown time.Duration
	WatchInterval time.Duration

	DataDir      string
	SnapInterval time.Duration
	SnapRetain   int
}

// validateFlags rejects contradictory or nonsensical flag combinations with
// actionable errors, before any socket is touched. Silent misbehavior —
// -pipeline 1 quietly not pipelining, -role reshard quietly printing
// nothing — is exactly what it exists to prevent.
func validateFlags(f nodeFlags) error {
	switch f.Role {
	case "coordinator", "cluster-coordinator", "replica", "site", "query", "reshard", "scrape":
	default:
		return fmt.Errorf("unknown role %q (want coordinator, cluster-coordinator, replica, site, query, reshard, or scrape)", f.Role)
	}
	if f.Sample < 1 {
		return fmt.Errorf("-sample %d: the sample size must be at least 1", f.Sample)
	}
	if f.Window < 0 {
		return fmt.Errorf("-window %d: the window length cannot be negative (0 = infinite window)", f.Window)
	}
	if f.Shards < 1 {
		return fmt.Errorf("-shards %d: a cluster needs at least one shard", f.Shards)
	}
	if f.Replicas < 0 {
		return fmt.Errorf("-replicas %d: the replica count cannot be negative (0 disables replication)", f.Replicas)
	}
	if f.SyncInterval <= 0 {
		return fmt.Errorf("-sync-interval %v: the replication interval must be positive", f.SyncInterval)
	}
	if f.Lease < 0 {
		return fmt.Errorf("-lease-interval %v: the lease cannot be negative (0 disables lease fencing)", f.Lease)
	}
	if f.Lease > 0 && f.Lease <= f.SyncInterval {
		return fmt.Errorf("-lease-interval %v must exceed -sync-interval %v: a healthy primary renews its lease once per replication round", f.Lease, f.SyncInterval)
	}
	if f.Lease > 0 && f.Replicas < 1 {
		return fmt.Errorf("-lease-interval needs -replicas: the lease is renewed by replica quorum acks, so an unreplicated shard could never renew")
	}
	if f.RetryBase < 0 {
		return fmt.Errorf("-retry-base %v: the retry backoff base cannot be negative", f.RetryBase)
	}
	if f.Batch < 1 {
		return fmt.Errorf("-batch %d: the batch size must be at least 1 (1 = one offer per frame)", f.Batch)
	}
	if f.Pipeline < 0 || f.Pipeline == 1 {
		return fmt.Errorf("-pipeline %d is not a pipeline: use 0 to disable pipelining or at least 2 frames in flight", f.Pipeline)
	}
	if f.Role == "reshard" {
		if f.Admin == "" {
			return fmt.Errorf("-role reshard requires -admin (the coordinator's admin address) — without it there is no cluster to reshard")
		}
		if f.Split != "" && f.MergeRange >= 0 {
			return fmt.Errorf("-split and -merge-range are mutually exclusive: a reshard command is one split or one merge")
		}
		if f.Split != "" {
			if _, _, err := parseSplit(f.Split); err != nil {
				return err
			}
		}
	}
	if f.Metrics != "" {
		if _, _, err := net.SplitHostPort(f.Metrics); err != nil {
			return fmt.Errorf("-metrics %q is not a host:port address: %v", f.Metrics, err)
		}
		if f.Metrics == f.Listen {
			return fmt.Errorf("-metrics %s collides with -listen: the metrics endpoint needs its own address", f.Metrics)
		}
		if f.Admin != "" && f.Metrics == f.Admin {
			return fmt.Errorf("-metrics %s collides with -admin: the metrics endpoint needs its own address", f.Metrics)
		}
	}
	if f.AutoReshard {
		if f.Role != "coordinator" && f.Role != "cluster-coordinator" {
			return fmt.Errorf("-autoreshard only applies to coordinator roles: the watcher runs inside the serving cluster")
		}
		if f.Admin == "" {
			return fmt.Errorf("-autoreshard requires -admin: without the admin listener nothing external can observe or audit the watcher's plans")
		}
		if f.Metrics == "" {
			return fmt.Errorf("-autoreshard requires -metrics: an autopilot that reshards silently is undebuggable — its dds_watcher_* counters must be scrapable")
		}
	}
	if f.WatchHigh <= 0 || f.WatchHigh >= 1 || f.WatchLow <= 0 || f.WatchLow >= f.WatchHigh {
		return fmt.Errorf("-watch-high %v / -watch-low %v: watermarks must satisfy 0 < low < high < 1", f.WatchHigh, f.WatchLow)
	}
	if f.WatchCooldown <= 0 {
		return fmt.Errorf("-watch-cooldown %v: the post-plan cooldown must be positive (it is the anti-flapping guard)", f.WatchCooldown)
	}
	if f.WatchInterval <= 0 {
		return fmt.Errorf("-watch-interval %v: the scoring interval must be positive", f.WatchInterval)
	}
	if f.DataDir != "" && f.Role != "coordinator" && f.Role != "cluster-coordinator" {
		return fmt.Errorf("-data-dir only applies to coordinator roles: the snapshot spool lives beside the shards it persists")
	}
	if f.DataDir == "" && (f.SnapInterval != 0 || f.SnapRetain != 0) {
		return fmt.Errorf("-snap-interval/-snap-retain tune the snapshot spool and need -data-dir to arm it")
	}
	if f.SnapInterval < 0 {
		return fmt.Errorf("-snap-interval %v: the snapshot interval cannot be negative (0 = default)", f.SnapInterval)
	}
	if f.SnapRetain < 0 {
		return fmt.Errorf("-snap-retain %d: the per-shard snapshot retention cannot be negative (0 = default)", f.SnapRetain)
	}
	if f.TraceSample < 0 || f.TraceSample > 1 {
		return fmt.Errorf("-trace-sample %v: the trace sample rate is a probability in [0, 1]", f.TraceSample)
	}
	if f.Role == "scrape" && f.TraceSample > 0 {
		return fmt.Errorf("-trace-sample is meaningless for -role scrape: the scrape client records no spans; set it on the node being scraped")
	}
	if f.Role == "scrape" && f.Scrape == "" {
		return fmt.Errorf("-role scrape requires -scrape (the metrics endpoint to check, ADDR or URL)")
	}
	if f.Role == "site" && f.Stream == "" {
		return fmt.Errorf("-role site requires -stream (a slot<TAB>key file, or '-' for stdin)")
	}
	if (f.Role == "site" || f.Role == "query") && f.Coordinator == "" && f.Admin == "" {
		return fmt.Errorf("-role %s requires -coordinator addresses or -admin to discover them", f.Role)
	}
	return nil
}

// parseSplit parses -split's SLOT[:FRAC] syntax.
func parseSplit(spec string) (slot int, frac float64, err error) {
	slotSpec := spec
	if s, fracStr, ok := strings.Cut(spec, ":"); ok {
		slotSpec = s
		frac, err = strconv.ParseFloat(fracStr, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad -split fraction %q: %w", fracStr, err)
		}
		if frac <= 0 || frac >= 1 {
			return 0, 0, fmt.Errorf("bad -split fraction %v: must be strictly between 0 and 1", frac)
		}
	}
	slot, err = strconv.Atoi(slotSpec)
	if err != nil {
		return 0, 0, fmt.Errorf("bad -split slot %q: %w", slotSpec, err)
	}
	if slot < 0 {
		return 0, 0, fmt.Errorf("bad -split slot %d: slot indices are non-negative", slot)
	}
	return slot, frac, nil
}

// splitGroups parses the -coordinator list: shards separated by commas, the
// members of one shard's replica group separated by slashes.
func splitGroups(list string) [][]string {
	var groups [][]string
	for _, shard := range strings.Split(list, ",") {
		var members []string
		for _, a := range strings.Split(shard, "/") {
			if a = strings.TrimSpace(a); a != "" {
				members = append(members, a)
			}
		}
		if len(members) > 0 {
			groups = append(groups, members)
		}
	}
	return groups
}

func main() {
	var f nodeFlags
	flag.StringVar(&f.Role, "role", "coordinator", "coordinator, cluster-coordinator, replica, site, query, or reshard")
	flag.StringVar(&f.Listen, "listen", "127.0.0.1:7070", "coordinator listen address (cluster shard c member m binds port + c*(replicas+1) + m)")
	flag.StringVar(&f.Coordinator, "coordinator", "127.0.0.1:7070", "coordinator shard addresses: shards comma-separated, replica-group members '/'-separated (site/query roles)")
	flag.IntVar(&f.Shards, "shards", 1, "number of coordinator shards (cluster-coordinator role)")
	flag.IntVar(&f.Replicas, "replicas", 0, "warm replicas per shard; > 0 turns each shard into a replica group (cluster-coordinator role)")
	flag.DurationVar(&f.SyncInterval, "sync-interval", 100*time.Millisecond, "how often each primary pushes its state to its replicas (cluster-coordinator role with -replicas)")
	flag.DurationVar(&f.Lease, "lease-interval", 0, "lease-fence primaries: a primary whose replica quorum has not renewed it within this long stops ingesting; must exceed -sync-interval, 0 disables (cluster-coordinator role with -replicas)")
	flag.IntVar(&f.RetryMax, "retry-max", 0, "max retries per operation against a lease-fenced primary before promoting a replica; 0 = default (5), negative = promote on the first fence (site role)")
	flag.DurationVar(&f.RetryBase, "retry-base", 0, "exponential-backoff base for lease-fence retries; 0 = default (5ms) (site role)")
	flag.IntVar(&f.ID, "id", 0, "site id (site role)")
	flag.IntVar(&f.Sample, "sample", 20, "sample size s per shard and for merged queries (must match across all nodes)")
	flag.Int64Var(&f.Window, "window", 0, "window size in slots; > 0 switches to the sliding-window protocol")
	flag.StringVar(&f.Stream, "stream", "", "stream file to replay (site role); '-' reads stdin")
	flag.Uint64Var(&f.HashSeed, "hash-seed", dds.DefaultSeed, "shared hash-function seed (must match on all nodes)")
	flag.IntVar(&f.Batch, "batch", 1, "offers per batch frame; > 1 enables batched transport (site role)")
	flag.IntVar(&f.Pipeline, "pipeline", 0, "pipelined ingest: max batch frames in flight per connection; 0 = one frame, the request/response dialogue (site role; try 8)")
	flag.StringVar(&f.Admin, "admin", "", "resharding admin address: the cluster-coordinator role listens on it, site/query/reshard roles connect to it")
	flag.StringVar(&f.Split, "split", "", "reshard role: split shard slot SLOT (or SLOT:FRAC for a cut at that fraction of its range)")
	flag.IntVar(&f.MergeRange, "merge-range", -1, "reshard role: merge this range index with the range to its right")
	flag.StringVar(&f.Metrics, "metrics", "", "serve live introspection on this host:port — /metrics, /debug/vars, /debug/events, /debug/pprof (coordinator and replica roles)")
	flag.StringVar(&f.Scrape, "scrape", "", "scrape role: metrics endpoint to fetch and check (host:port or full URL)")
	flag.StringVar(&f.Require, "require", "", "scrape role: comma-separated metric families that must be present with a nonzero total")
	flag.Float64Var(&f.TraceSample, "trace-sample", 0, "fraction of ingest batches to trace with full cross-plane span timelines (/debug/traces); 0 disables, 1 traces everything")
	flag.BoolVar(&f.AutoReshard, "autoreshard", false, "run the autopilot watcher: score per-shard load and split/merge automatically; requires -admin and -metrics (coordinator roles)")
	flag.Float64Var(&f.WatchHigh, "watch-high", 0.65, "autoreshard: smoothed load share above which the hottest shard splits")
	flag.Float64Var(&f.WatchLow, "watch-low", 0.15, "autoreshard: smoothed combined share below which the coldest adjacent ranges merge")
	flag.DurationVar(&f.WatchCooldown, "watch-cooldown", 2*time.Second, "autoreshard: stand-down after any plan before the watcher acts again")
	flag.DurationVar(&f.WatchInterval, "watch-interval", 250*time.Millisecond, "autoreshard: how often the watcher scores shard load deltas")
	flag.StringVar(&f.DataDir, "data-dir", "", "durability: spool atomic per-shard snapshots under this directory and restore from it at boot (coordinator roles)")
	flag.DurationVar(&f.SnapInterval, "snap-interval", 0, "durability: background snapshot cadence per shard primary; 0 = default (1s); requires -data-dir")
	flag.IntVar(&f.SnapRetain, "snap-retain", 0, "durability: snapshots kept per shard before pruning; 0 = default (3); requires -data-dir")
	flag.Parse()

	if err := validateFlags(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Process-wide: covers every role, the wire-level replica role included
	// (the dds roles also set it through WithTraceSampling).
	obs.SetTraceSampleRate(f.TraceSample)

	switch f.Role {
	case "coordinator":
		f.Shards = 1
		runCoordinator(f)
	case "cluster-coordinator":
		runCoordinator(f)
	case "replica":
		runReplica(f)
	case "site":
		runSite(f)
	case "query":
		runQuery(f)
	case "reshard":
		runReshard(f)
	case "scrape":
		runScrape(f)
	}
}

// serveMetrics starts the live-introspection endpoint when -metrics is set,
// returning its bound address ("" when disabled).
func serveMetrics(f nodeFlags) string {
	if f.Metrics == "" {
		return ""
	}
	ln, err := net.Listen("tcp", f.Metrics)
	if err != nil {
		fatal(fmt.Errorf("metrics listen: %w", err))
	}
	go func() { _ = http.Serve(ln, dds.MetricsHandler()) }()
	addr := ln.Addr().String()
	fmt.Printf("metrics listening on http://%s/metrics (also /debug/vars, /debug/events, /debug/traces, /debug/pprof)\n", addr)
	return addr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// options renders the shared flags as dds functional options.
func (f nodeFlags) options() []dds.Option {
	var opts []dds.Option
	if f.Window > 0 {
		opts = append(opts, dds.WithWindow(f.Window))
	}
	if f.Batch > 1 {
		opts = append(opts, dds.WithBatch(f.Batch))
	}
	if f.Pipeline > 1 {
		opts = append(opts, dds.WithPipelining(f.Pipeline))
	}
	if f.RetryMax != 0 || f.RetryBase != 0 {
		opts = append(opts, dds.WithRetry(f.RetryMax, f.RetryBase))
	}
	if f.TraceSample > 0 {
		opts = append(opts, dds.WithTraceSampling(f.TraceSample))
	}
	return opts
}

func (f nodeFlags) config() dds.Config {
	return dds.Config{
		Coordinators: splitGroups(f.Coordinator),
		SiteID:       f.ID,
		SampleSize:   f.Sample,
		Seed:         f.HashSeed,
		Listen:       f.Listen,
		Shards:       f.Shards,
	}
}

func waitForSignal() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
}

func runCoordinator(f nodeFlags) {
	opts := f.options()
	opts = append(opts, dds.WithReplicas(f.Replicas), dds.WithSyncInterval(f.SyncInterval))
	if f.Lease > 0 {
		opts = append(opts, dds.WithLease(f.Lease))
	}
	if f.Admin != "" {
		opts = append(opts, dds.WithAdmin(f.Admin))
	}
	if f.AutoReshard {
		opts = append(opts,
			dds.WithAutoReshard(f.WatchHigh, f.WatchLow, f.WatchCooldown),
			dds.WithWatchInterval(f.WatchInterval))
	}
	if f.DataDir != "" {
		opts = append(opts, dds.WithDataDir(f.DataDir))
		if f.SnapInterval > 0 {
			opts = append(opts, dds.WithSnapInterval(f.SnapInterval))
		}
		if f.SnapRetain > 0 {
			opts = append(opts, dds.WithSnapRetain(f.SnapRetain))
		}
	}
	cl, err := dds.Serve(context.Background(), f.config(), opts...)
	if err != nil {
		fatal(err)
	}
	serveMetrics(f)
	kind := fmt.Sprintf("infinite-window (s=%d per shard)", f.Sample)
	if f.Window > 0 {
		kind = fmt.Sprintf("sliding-window (w=%d slots)", f.Window)
	}
	fmt.Printf("%d-shard %s coordinator, %d warm replica(s) per shard\n", f.Shards, kind, f.Replicas)
	for shard, members := range cl.Groups() {
		fmt.Printf("  shard %d: %s\n", shard, strings.Join(members, " "))
	}
	fmt.Printf("site/query -coordinator value: %s\n", cl.CoordinatorSpec())
	if addr := cl.AdminAddr(); addr != "" {
		fmt.Printf("reshard admin listening on %s (ddsnode -role reshard -admin %s ...)\n", addr, addr)
	}
	if f.AutoReshard {
		fmt.Printf("autopilot resharding armed: split above %.2f, merge below %.2f, cooldown %v, scoring every %v\n",
			f.WatchHigh, f.WatchLow, f.WatchCooldown, f.WatchInterval)
	}
	if f.DataDir != "" {
		fmt.Printf("durability armed: snapshot spool at %s (restored shards come back warm after a crash or restart)\n", f.DataDir)
	}
	fmt.Println("press Ctrl-C to stop")

	waitForSignal()
	offers, replies, queries := cl.Stats()
	fmt.Printf("\nshutting down: %d offers, %d replies, %d queries served\n", offers, replies, queries)
	if ws := cl.WatcherStats(); ws != nil {
		fmt.Printf("autopilot: %d scoring ticks, %d splits, %d merges, %d declined\n",
			ws.Ticks, ws.Splits, ws.Merges, ws.Skipped)
	}
	if sample, err := cl.Sample(0); err == nil {
		fmt.Println("final merged sample:")
		for _, e := range sample {
			fmt.Printf("  %-40s h=%.6f\n", e.Key, e.Hash)
		}
	}
	_ = cl.Close()
}

// runReplica runs one standalone warm replica: a coordinator of the chosen
// window kind that accepts state-frame pushes and promote frames, serving
// ingest once promoted. Placed on its own host, its address joins a replica
// group's member list. (This role sits below the dds API on purpose: a bare
// replica is a single wire-level coordinator server, not a cluster.)
// newReplicaNode builds the protocol coordinator a standalone replica hosts.
func newReplicaNode(f nodeFlags) netsim.CoordinatorNode {
	if f.Window > 0 {
		return sliding.NewCoordinator()
	}
	return core.NewInfiniteCoordinator(f.Sample)
}

func runReplica(f nodeFlags) {
	srv := wire.NewCoordinatorServer(newReplicaNode(f))
	addr, err := srv.Listen(f.Listen)
	if err != nil {
		fatal(err)
	}
	serveMetrics(f)
	kind := fmt.Sprintf("infinite-window, s=%d", f.Sample)
	if f.Window > 0 {
		kind = fmt.Sprintf("sliding-window, w=%d slots", f.Window)
	}
	fmt.Printf("warm replica (%s) listening on %s: accepting state frames, promote, and (once promoted) ingest\n", kind, addr)
	fmt.Println("press Ctrl-C to stop")
	waitForSignal()
	offers, replies, queries := srv.Stats()
	fmt.Printf("\nshutting down: epoch %d (promoted: %v), %d offers, %d replies, %d queries served\n",
		srv.Epoch(), srv.Promoted(), offers, replies, queries)
	fmt.Println("final sample:")
	for _, e := range srv.Sample() {
		fmt.Printf("  %-40s h=%.6f\n", e.Key, e.Hash)
	}
	_ = srv.Close()
}

func runSite(f nodeFlags) {
	in := os.Stdin
	if f.Stream != "-" {
		file, err := os.Open(f.Stream)
		if err != nil {
			fatal(err)
		}
		defer file.Close()
		in = file
	}
	elements, err := stream.Read(in)
	if err != nil {
		fatal(err)
	}

	opts := f.options()
	if f.Admin != "" {
		opts = append(opts, dds.WithAdmin(f.Admin))
	}
	client, err := dds.Open(context.Background(), f.config(), opts...)
	if err != nil {
		fatal(err)
	}
	defer client.Close()

	lastSlot := int64(-1)
	for _, e := range elements {
		if f.Window > 0 && lastSlot >= 0 && e.Slot > lastSlot {
			// Close out every slot between arrivals so expiries fire.
			for slot := lastSlot; slot < e.Slot; slot++ {
				if err := client.EndSlot(slot); err != nil {
					fatal(err)
				}
			}
		}
		if err := client.Offer(e.Key, e.Slot); err != nil {
			fatal(err)
		}
		lastSlot = e.Slot
	}
	if f.Window > 0 && lastSlot >= 0 {
		if err := client.EndSlot(lastSlot); err != nil {
			fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		fatal(err)
	}
	mode := "sync"
	if f.Pipeline > 1 {
		mode = fmt.Sprintf("pipelined window %d", f.Pipeline)
	}
	fmt.Printf("site %d replayed %d elements [batch %d, %s]\n", f.ID, len(elements), f.Batch, mode)
}

func runQuery(f nodeFlags) {
	opts := f.options()
	if f.Admin != "" {
		opts = append(opts, dds.WithAdmin(f.Admin))
	}
	ctx := context.Background()
	sample, err := dds.Query(ctx, f.config(), opts...)
	if err != nil {
		fatal(err)
	}
	scope := "distinct sample"
	if f.Window > 0 {
		scope = "window sample"
	}
	fmt.Printf("%s (%d entries):\n", scope, len(sample))
	for _, e := range sample {
		fmt.Printf("  %-40s h=%.6f\n", e.Key, e.Hash)
	}
	if f.Window > 0 || len(sample) == 0 {
		return
	}
	// Whole-stream mode: the sample already fetched doubles as the KMV
	// sketch — the estimate is local, no second cluster round trip.
	est, err := sample.Estimate(f.Sample)
	switch {
	case err != nil:
		fmt.Printf("distinct-count estimate unavailable: %v\n", err)
	case est.Exact:
		fmt.Printf("exact distinct elements: %.0f (population smaller than s=%d)\n", est.Count, f.Sample)
	default:
		fmt.Printf("estimated distinct elements: %.0f  (95%% CI %.0f – %.0f)\n", est.Count, est.Low, est.High)
	}
}

func runReshard(f nodeFlags) {
	ctx := context.Background()
	var status *dds.AdminStatus
	var err error
	switch {
	case f.Split != "":
		slot, frac, perr := parseSplit(f.Split)
		if perr != nil {
			fatal(perr)
		}
		status, err = dds.AdminSplit(ctx, f.Admin, slot, frac)
	case f.MergeRange >= 0:
		status, err = dds.AdminMerge(ctx, f.Admin, f.MergeRange)
	default:
		status, err = dds.AdminTable(ctx, f.Admin)
	}
	if err != nil {
		fatal(err)
	}
	if rep := status.Report; rep != nil {
		fmt.Printf("%s v%d: moved range [%#x, %#x) from slot %d to slot %d (%d+%d entries, cutover %v, total %v)\n",
			rep.Op, rep.Version, rep.Lo, rep.Hi, rep.Donor, rep.Successor,
			rep.WarmEntries, rep.SettleEntries, rep.CutoverStall, rep.Total)
	}
	fmt.Printf("routing table v%d over %d range(s):\n", status.Version, len(status.Bounds))
	for i, b := range status.Bounds {
		fmt.Printf("  [%#016x, ...) -> slot %d\n", b, status.Slots[i])
	}
	fmt.Printf("site/query -coordinator value: %s\n", status.Coordinator)
	fmt.Println("note: restart running site processes with -admin so they fetch this table (the admin path does not flip remote sites)")
}

// runScrape fetches a node's /metrics endpoint, parses the Prometheus text
// exposition, and — with -require — fails unless every named metric family
// is present with a nonzero total. It is the deployment (and CI) smoke
// check: "is this cluster actually counting?" as an exit code.
func runScrape(f nodeFlags) {
	url := f.Scrape
	if !strings.Contains(url, "://") {
		url = "http://" + url + "/metrics"
	}
	resp, err := http.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("scrape %s: status %s", url, resp.Status))
	}
	series, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		fatal(fmt.Errorf("scrape %s: not valid Prometheus text: %w", url, err))
	}
	fmt.Printf("scraped %s: %d series\n", url, len(series))
	failed := false
	for _, family := range strings.Split(f.Require, ",") {
		family = strings.TrimSpace(family)
		if family == "" {
			continue
		}
		total := obs.FamilyTotal(series, family)
		if total == 0 {
			fmt.Fprintf(os.Stderr, "FAIL %s: total is zero or family absent\n", family)
			failed = true
			continue
		}
		fmt.Printf("  ok %s total=%g\n", family, total)
	}
	if failed {
		os.Exit(1)
	}
}
