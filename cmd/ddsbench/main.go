// Command ddsbench regenerates the paper's tables and figures (and the
// extension experiments) from the synthetic datasets, printing each result
// as an aligned table or CSV.
//
// Usage:
//
//	ddsbench -list
//	ddsbench -experiment fig5.4
//	ddsbench -experiment all -format csv -runs 10
//	ddsbench -experiment fig5.7 -oc48-scale 0.05 -enron-scale 0.5
//	ddsbench -experiment table5.1 -paper        # full paper-scale sizes
//	ddsbench -cluster-bench -out BENCH_cluster.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/dds"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/plot"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or \"all\"")
		list       = flag.Bool("list", false, "list available experiments and exit")
		format     = flag.String("format", "table", "output format: table or csv")
		plotFlag   = flag.Bool("plot", false, "also render an ASCII chart for experiments that describe one")
		runs       = flag.Int("runs", 0, "override the number of runs averaged per data point")
		oc48Scale  = flag.Float64("oc48-scale", 0, "override the OC48 dataset scale (1 = paper size)")
		enronScale = flag.Float64("enron-scale", 0, "override the Enron dataset scale (1 = paper size)")
		seed       = flag.Uint64("seed", 0, "override the master seed")
		paper      = flag.Bool("paper", false, "use the paper's full-scale configuration (slow)")
		quick      = flag.Bool("quick", false, "use the sub-second configuration used by tests")

		clusterBench  = flag.Bool("cluster-bench", false, "run the sharded-cluster ingest benchmark and write machine-readable JSON")
		out           = flag.String("out", "BENCH_cluster.json", "output path for -cluster-bench")
		benchElems    = flag.Int("bench-elements", 20000, "stream length for -cluster-bench")
		benchShards   = flag.String("bench-shards", "1,4", "comma-separated shard counts for -cluster-bench")
		benchWindows  = flag.String("bench-windows", "1,2,4,8,16,32", "comma-separated pipeline window sizes for the -cluster-bench pipeline sweep (1 = one frame in flight, the baseline)")
		requireSpeed  = flag.Float64("require-pipeline-speedup", 0, "fail -cluster-bench unless the best pipelined window beats the one-frame window by this factor (0 disables; CI uses 1.0)")
		benchFailover = flag.Bool("bench-failover", true, "include the kill/promote failover benchmark in -cluster-bench (fails on reference divergence)")
		benchReshard  = flag.Bool("bench-reshard", true, "include the online split/merge reshard benchmark in -cluster-bench (fails on reference divergence)")
		benchAutoPlt  = flag.Bool("bench-autopilot", true, "include the autopilot resharding benchmark in -cluster-bench: a watcher-initiated split under Zipf-skewed ingest, no manual plan (fails on reference divergence)")
		benchSlidingF = flag.Bool("bench-sliding-failover", true, "include the sliding-window kill/promote benchmark in -cluster-bench (fails on window-minimum divergence)")
		benchTracing  = flag.Bool("bench-tracing", true, "include the trace-sampling overhead comparison in -cluster-bench (ingest at sample rates 0, 0.01, 1.0)")
		benchDurable  = flag.Bool("bench-durability", true, "include the durability benchmark in -cluster-bench: spool-on vs spool-off ingest, barrier latency, power-loss halt, timed cold restore (fails on reference divergence)")
		benchWindowSl = flag.Int64("bench-window-slots", 60, "sliding-window length in slots for -bench-sliding-failover")
		benchReplicas = flag.Int("bench-replicas", 1, "warm replicas per shard for the failover and reshard benchmarks")
		benchSyncInt  = flag.Duration("bench-sync-interval", 50*time.Millisecond, "replica sync interval for the failover and reshard benchmarks")
	)
	flag.Parse()

	if *clusterBench {
		if err := runClusterBench(*out, *benchElems, *benchShards, *benchWindows, *seed, *requireSpeed, *benchFailover, *benchReshard, *benchAutoPlt, *benchSlidingF, *benchTracing, *benchDurable, *benchWindowSl, *benchReplicas, *benchSyncInt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-12s %s\n", r.ID, r.Description)
		}
		return
	}

	cfg := experiments.DefaultConfig()
	if *paper {
		cfg = experiments.PaperConfig()
	}
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *runs > 0 {
		cfg.Runs = *runs
		cfg.SlidingRuns = *runs
	}
	if *oc48Scale > 0 {
		cfg.OC48Scale = *oc48Scale
	}
	if *enronScale > 0 {
		cfg.EnronScale = *enronScale
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	var selected []experiments.Runner
	if *experiment == "all" {
		selected = experiments.Registry()
	} else {
		for _, id := range strings.Split(*experiment, ",") {
			r, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s\n",
					id, strings.Join(experiments.IDs(), ", "))
				os.Exit(2)
			}
			selected = append(selected, r)
		}
	}

	for _, r := range selected {
		start := time.Now()
		table := r.Run(cfg)
		switch *format {
		case "csv":
			fmt.Print(table.CSV())
		default:
			fmt.Print(table.String())
		}
		if *plotFlag && table.Plot != nil {
			chart := &plot.Chart{
				Title:  table.Title,
				XLabel: table.Columns[table.Plot.X],
				YLabel: table.Columns[table.Plot.Y],
				LogX:   table.Plot.LogX,
				LogY:   table.Plot.LogY,
			}
			for _, s := range plot.FromRows(table.Rows, table.Plot.Group, table.Plot.X, table.Plot.Y) {
				chart.Add(s.Name, s.Points)
			}
			fmt.Println()
			fmt.Print(chart.Render())
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
}

// clusterBenchReport is the schema of BENCH_cluster.json: batched ingest
// measured at every shard count, plus the sections below, so future changes
// can track the performance trajectory from one file.
type clusterBenchReport struct {
	GeneratedUnix int64                  `json:"generated_unix"`
	Elements      int                    `json:"elements"`
	Results       []*cluster.BenchResult `json:"results"`
	// Pipeline is the window-size sweep of the pipelined ingest path.
	Pipeline *pipelineReport `json:"pipeline"`
	// Failover measures ingest throughput across a kill/promote event on
	// replica groups (see cluster.RunFailoverBench). Every run in it has
	// passed the merged-sample-vs-reference byte-identity check.
	Failover *failoverReport `json:"failover,omitempty"`
	// Reshard measures ingest throughput across an online shard split (and a
	// merge reuniting the ranges) — see cluster.RunReshardBench. Every run
	// in it has passed the merged-sample-vs-reference check.
	Reshard *reshardReport `json:"reshard,omitempty"`
	// Autopilot measures hands-off rebalancing: the watcher splitting a hot
	// shard under Zipf-skewed ingest with no manual plan (see
	// cluster.RunAutopilotBench). Every run in it has passed the
	// merged-sample-vs-reference check.
	Autopilot *autopilotReport `json:"autopilot,omitempty"`
	// SlidingFailover measures ingest throughput across a kill/promote event
	// on a sliding-window cluster — replication of the candidate store via
	// the generic state frames (see cluster.RunSlidingFailoverBench). Every
	// run has passed the window-minimum-vs-brute-force check.
	SlidingFailover *slidingFailoverReport `json:"sliding_failover,omitempty"`
	// Tracing compares flood-mode pipelined ingest throughput at trace sample
	// rates 0 (the default: one atomic load per batch, no allocations), 1%
	// (the suggested production rate), and 100% (every batch records a full
	// cross-plane span timeline). The sampled-off run doubles as the proof
	// that carrying trace fields in every wire frame costs nothing when
	// tracing is disabled.
	Tracing *tracingReport `json:"tracing,omitempty"`
	// Durability measures the snapshot spool: ingest throughput with
	// background spooling on vs off, the cost of a forced all-shards spool
	// barrier, and the timed cold restore after a power-loss halt (see
	// cluster.RunDurabilityBench). The run fails unless the restored merged
	// sample matches the centralized reference exactly.
	Durability *durabilityReport `json:"durability,omitempty"`
	// Metrics is the process's full observability snapshot taken after every
	// benchmark section ran: wire frame/byte counters, per-shard offer and
	// churn counters, replica sync totals, failover and reshard phase
	// histograms. Because every section runs in-process against the shared
	// registry, this is the benchmark suite's own flight recording — a
	// regression that changes message efficiency or sync traffic shows up
	// here even when throughput numbers hold steady.
	Metrics *dds.MetricsSnapshot `json:"metrics,omitempty"`
}

// slidingFailoverReport is the sliding_failover section of
// BENCH_cluster.json: one sliding-window kill/promote run per transport
// mode, at the sweep's largest shard count.
type slidingFailoverReport struct {
	Replicas       int                              `json:"replicas"`
	WindowSlots    int64                            `json:"window_slots"`
	SyncIntervalMS float64                          `json:"sync_interval_ms"`
	Runs           []*cluster.SlidingFailoverResult `json:"runs"`
	// WorstPostKillRatio is the min over runs of post-kill / pre-kill
	// throughput.
	WorstPostKillRatio float64 `json:"worst_post_kill_ratio"`
}

// reshardReport is the reshard section of BENCH_cluster.json: one online
// split+merge run per transport mode, at the sweep's largest shard count.
type reshardReport struct {
	Replicas       int                           `json:"replicas"`
	SyncIntervalMS float64                       `json:"sync_interval_ms"`
	Runs           []*cluster.ReshardBenchResult `json:"runs"`
	// WorstDuringRatio is the min over runs of during-split / before-split
	// throughput: how much of the ingest rate survives a live reshard.
	WorstDuringRatio float64 `json:"worst_during_ratio"`
}

// autopilotReport is the autopilot section of BENCH_cluster.json: one
// watcher-initiated split run per transport mode, at the sweep's largest
// shard count.
type autopilotReport struct {
	Replicas       int                             `json:"replicas"`
	SyncIntervalMS float64                         `json:"sync_interval_ms"`
	Runs           []*cluster.AutopilotBenchResult `json:"runs"`
	// WorstDuringRatio is the min over runs of during-rebalance / before
	// throughput: how much of the ingest rate survives the watcher noticing,
	// deliberating, and cutting over. WorstRebalanceLatencySec is the max
	// arming-to-split wall clock.
	WorstDuringRatio         float64 `json:"worst_during_ratio"`
	WorstRebalanceLatencySec float64 `json:"worst_rebalance_latency_sec"`
}

// durabilityReport is the durability section of BENCH_cluster.json: the
// spool-on/spool-off ingest comparison, barrier latency, and power-loss
// restore measurement at the sweep's largest shard count.
type durabilityReport struct {
	Replicas       int                              `json:"replicas"`
	SyncIntervalMS float64                          `json:"sync_interval_ms"`
	Runs           []*cluster.DurabilityBenchResult `json:"runs"`
	// WorstOverheadPct is the max over runs of the spool-on ingest slowdown
	// relative to spool-off — the headline "durability is nearly free" number
	// (a snapshot is one bounded sample encode plus one file write, off the
	// ingest path; the design target keeps this within 10%).
	WorstOverheadPct float64 `json:"worst_overhead_pct"`
	// WorstRestoreSec is the max over runs of the cold-restore wall clock.
	WorstRestoreSec float64 `json:"worst_restore_sec"`
}

// failoverReport is the failover section of BENCH_cluster.json: one
// kill/promote run per transport mode, at the sweep's largest shard count.
type failoverReport struct {
	Replicas       int                       `json:"replicas"`
	SyncIntervalMS float64                   `json:"sync_interval_ms"`
	Runs           []*cluster.FailoverResult `json:"runs"`
	// WorstPostKillRatio is the min over runs of post-kill / pre-kill
	// throughput: how much of the ingest rate survives a primary death
	// (promotion stall included).
	WorstPostKillRatio float64 `json:"worst_post_kill_ratio"`
}

// tracingReport is the tracing section of BENCH_cluster.json: the same
// flood-mode pipelined ingest configuration run at three trace sample rates.
type tracingReport struct {
	Shards int            `json:"shards"`
	Runs   []tracingPoint `json:"runs"`
	// SpansRecorded is how many spans the 100% run left in the flight
	// recorder ring (bounded by the ring size; proves spans actually flowed).
	SpansRecorded int `json:"spans_recorded"`
}

type tracingPoint struct {
	SampleRate float64 `json:"sample_rate"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	// RelativeToOff is this run's ops_per_sec over the sample-rate-0 run's —
	// the throughput retained when tracing at this rate.
	RelativeToOff float64 `json:"relative_to_off"`
}

// pipelineReport compares batched-binary ingest through a one-frame window
// with deeper credit windows in flood mode (one offer per element on the
// wire), sweeping the window size at two batch sizes. Flood mode isolates
// transport throughput: the paper's protocol filters almost every arrival
// locally, so a protocol-mode run measures hashing rather than the wire. Two
// batch sizes because pipelining changes the trade-off: a one-frame window
// needs large batches to amortize its per-batch round trip, while a deeper
// window sustains throughput at small batches too (fresher thresholds, lower
// latency) — the speedup is largest there.
type pipelineReport struct {
	Shards int             `json:"shards"`
	Sweeps []pipelineSweep `json:"sweeps"`
	// BestSpeedupVsSync is the max over all sweeps and windows of
	// ops_per_sec / (that sweep's window-1 ops_per_sec).
	BestSpeedupVsSync float64 `json:"best_speedup_vs_sync"`
	BestBatch         int     `json:"best_batch"`
	BestWindow        int     `json:"best_window"`
}

type pipelineSweep struct {
	Batch int `json:"batch"`
	// Windows lists one measurement per swept window size; window 1, one
	// frame in flight, is the request/response baseline.
	Windows []pipelinePoint `json:"windows"`
}

type pipelinePoint struct {
	Window        int     `json:"window"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	SpeedupVsSync float64 `json:"speedup_vs_sync"`
}

// runClusterBench measures batched cluster ingest at every shard count plus
// the pipeline window sweep and writes the machine-readable report to path.
// If requireSpeedup > 0 and the best pipelined window does not beat the
// one-frame window by that factor, an error is returned (the CI smoke gate).
func runClusterBench(path string, elements int, shardList, windowList string, seed uint64, requireSpeedup float64, failover, reshard, autopilot, slidingFailover, tracing, durability bool, windowSlots int64, replicas int, syncInterval time.Duration) error {
	report := &clusterBenchReport{
		GeneratedUnix: time.Now().Unix(),
		Elements:      elements,
	}
	maxShards := 1
	for _, field := range strings.Split(shardList, ",") {
		shards, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || shards < 1 {
			return fmt.Errorf("ddsbench: bad -bench-shards entry %q", field)
		}
		if shards > maxShards {
			maxShards = shards
		}
		cfg := cluster.DefaultBenchConfig()
		cfg.Shards = shards
		cfg.Elements = elements
		cfg.Distinct = elements / 4
		cfg.Batch = 64
		if seed != 0 {
			cfg.Seed = seed
		}
		res, err := cluster.RunIngestBench(cfg)
		if err != nil {
			return err
		}
		report.Results = append(report.Results, res)
		fmt.Fprintf(os.Stderr, "[cluster-bench shards=%d batch=%d: %.0f ops/s, %.3f msgs/element]\n",
			shards, res.Batch, res.OpsPerSec, res.MsgsPerElement)
	}

	pipeline, err := runPipelineSweep(elements, maxShards, windowList, seed)
	if err != nil {
		return err
	}
	report.Pipeline = pipeline

	if failover {
		report.Failover, err = runFailoverBench(elements, maxShards, replicas, syncInterval, seed)
		if err != nil {
			return err
		}
	}

	if reshard {
		report.Reshard, err = runReshardBench(elements, maxShards, replicas, syncInterval, seed)
		if err != nil {
			return err
		}
	}

	if autopilot {
		report.Autopilot, err = runAutopilotBench(elements, maxShards, replicas, syncInterval, seed)
		if err != nil {
			return err
		}
	}

	if slidingFailover {
		report.SlidingFailover, err = runSlidingFailoverBench(elements, maxShards, windowSlots, replicas, syncInterval, seed)
		if err != nil {
			return err
		}
	}

	if tracing {
		report.Tracing, err = runTracingBench(elements, maxShards, seed)
		if err != nil {
			return err
		}
	}

	if durability {
		report.Durability, err = runDurabilityBench(elements, maxShards, replicas, syncInterval, seed)
		if err != nil {
			return err
		}
	}

	ms := dds.Metrics()
	report.Metrics = &ms
	fmt.Fprintf(os.Stderr, "[metrics snapshot: %d counters, %d gauges, %d histograms; frames encoded=%d, replica syncs=%d, failovers=%d]\n",
		len(ms.Counters), len(ms.Gauges), len(ms.Histograms),
		sumFamily(ms, "dds_wire_frames_encoded_total"),
		ms.Counter("dds_replica_sync_rounds_total"),
		ms.Counter("dds_cluster_failovers_total"))

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d results; pipelined best %.2fx sync at batch %d window %d)\n",
		path, len(report.Results), pipeline.BestSpeedupVsSync, pipeline.BestBatch, pipeline.BestWindow)
	if requireSpeedup > 0 && pipeline.BestSpeedupVsSync < requireSpeedup {
		return fmt.Errorf("ddsbench: pipelined ingest best speedup %.2fx is below the required %.2fx",
			pipeline.BestSpeedupVsSync, requireSpeedup)
	}
	return nil
}

// runFailoverBench runs the kill/promote benchmark in both transport modes
// (one frame and eight frames in flight, flood mode so the wire is the
// bottleneck) at the sweep's largest shard count. Each run internally fails
// if the post-promotion merged sample diverges from the centralized
// reference, so a successful section is also a correctness proof.
func runFailoverBench(elements, shards, replicas int, syncInterval time.Duration, seed uint64) (*failoverReport, error) {
	rep := &failoverReport{
		Replicas:           replicas,
		SyncIntervalMS:     float64(syncInterval) / float64(time.Millisecond),
		WorstPostKillRatio: math.Inf(1),
	}
	for _, window := range []int{1, 8} {
		cfg := cluster.DefaultBenchConfig()
		cfg.Shards = shards
		cfg.Elements = elements
		cfg.Distinct = elements / 4
		cfg.Batch = 64
		cfg.Flood = true
		if window > 1 {
			cfg.Window = window
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		res, err := cluster.RunFailoverBench(cfg, replicas, syncInterval)
		if err != nil {
			return nil, err
		}
		rep.Runs = append(rep.Runs, res)
		ratio := res.PostKillOpsPerSec / res.PreKillOpsPerSec
		if ratio < rep.WorstPostKillRatio {
			rep.WorstPostKillRatio = ratio
		}
		fmt.Fprintf(os.Stderr, "[failover-bench shards=%d replicas=%d window=%d: %.0f -> %.0f ops/s across kill (%.2fx), %d promotions, %.1f ms stalled]\n",
			shards, replicas, window, res.PreKillOpsPerSec, res.PostKillOpsPerSec, ratio, res.Failovers, res.FailoverStallSec*1000)
	}
	return rep, nil
}

// runAutopilotBench runs the watcher-initiated split benchmark in both
// transport modes (one frame and eight frames in flight, flood mode so the
// per-shard offer counters see the stream's true skew) at the sweep's
// largest shard count. Each run arms the watcher against a Zipf-skewed
// stream and fails unless a hands-off split lands with the merged sample
// still byte-identical to the centralized reference.
func runAutopilotBench(elements, shards, replicas int, syncInterval time.Duration, seed uint64) (*autopilotReport, error) {
	rep := &autopilotReport{
		Replicas:         replicas,
		SyncIntervalMS:   float64(syncInterval) / float64(time.Millisecond),
		WorstDuringRatio: math.Inf(1),
	}
	for _, window := range []int{1, 8} {
		cfg := cluster.DefaultBenchConfig()
		cfg.Shards = shards
		cfg.Elements = elements
		cfg.Distinct = elements / 4
		cfg.Batch = 64
		cfg.Flood = true
		if window > 1 {
			cfg.Window = window
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		res, err := cluster.RunAutopilotBench(cfg, replicas, syncInterval)
		if err != nil {
			return nil, err
		}
		rep.Runs = append(rep.Runs, res)
		ratio := res.DuringOpsPerSec / res.BeforeOpsPerSec
		if ratio < rep.WorstDuringRatio {
			rep.WorstDuringRatio = ratio
		}
		if res.RebalanceLatencySec > rep.WorstRebalanceLatencySec {
			rep.WorstRebalanceLatencySec = res.RebalanceLatencySec
		}
		fmt.Fprintf(os.Stderr, "[autopilot-bench shards=%d replicas=%d window=%d: split in %.0f ms over %d rounds (hot %.2f, watermark %.2f), %.0f -> %.0f -> %.0f ops/s (%.2fx during), table v%d]\n",
			shards, replicas, window, res.RebalanceLatencySec*1000, res.Rounds, res.HotShare, res.HighWatermark,
			res.BeforeOpsPerSec, res.DuringOpsPerSec, res.AfterOpsPerSec, ratio, res.TableVersion)
	}
	return rep, nil
}

// runDurabilityBench runs the snapshot-spool benchmark in both transport
// modes (one frame and eight frames in flight, flood mode so background
// spooling competes with real wire pressure) at the sweep's largest shard
// count. Each run ingests the same stream with the spool off and on, measures
// the forced spool-barrier latency, halts the cluster as a power loss would,
// and times the cold restore — failing unless the restored merged sample
// matches the centralized reference exactly.
func runDurabilityBench(elements, shards, replicas int, syncInterval time.Duration, seed uint64) (*durabilityReport, error) {
	rep := &durabilityReport{
		Replicas:       replicas,
		SyncIntervalMS: float64(syncInterval) / float64(time.Millisecond),
	}
	for _, window := range []int{1, 8} {
		cfg := cluster.DefaultBenchConfig()
		cfg.Shards = shards
		cfg.Elements = elements
		cfg.Distinct = elements / 4
		cfg.Batch = 64
		cfg.Flood = true
		if window > 1 {
			cfg.Window = window
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		dir, err := os.MkdirTemp("", "ddsbench-durability-*")
		if err != nil {
			return nil, err
		}
		res, err := cluster.RunDurabilityBench(cfg, replicas, syncInterval, 25*time.Millisecond, dir)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		rep.Runs = append(rep.Runs, res)
		if res.OverheadPct > rep.WorstOverheadPct {
			rep.WorstOverheadPct = res.OverheadPct
		}
		if res.RestoreSec > rep.WorstRestoreSec {
			rep.WorstRestoreSec = res.RestoreSec
		}
		fmt.Fprintf(os.Stderr, "[durability-bench shards=%d replicas=%d window=%d: %.0f ops/s off, %.0f ops/s spooled (%.1f%% overhead), %d snapshots / %d bytes, barrier %.2f ms, restore %.1f ms for %d slots]\n",
			shards, replicas, window, res.OffOpsPerSec, res.OnOpsPerSec, res.OverheadPct,
			res.Snapshots, res.SnapshotBytes, res.SpoolBarrierSec*1000, res.RestoreSec*1000, res.RestoredSlots)
	}
	return rep, nil
}

// runSlidingFailoverBench runs the sliding-window kill/promote benchmark in
// both transport modes at the sweep's largest shard count. Each run
// internally fails if the post-promotion merged window sample diverges from
// the brute-force window minimum, so a successful section is also the
// correctness proof that sliding-window replication (generic state frames)
// survives a primary death.
func runSlidingFailoverBench(elements, shards int, windowSlots int64, replicas int, syncInterval time.Duration, seed uint64) (*slidingFailoverReport, error) {
	rep := &slidingFailoverReport{
		Replicas:           replicas,
		WindowSlots:        windowSlots,
		SyncIntervalMS:     float64(syncInterval) / float64(time.Millisecond),
		WorstPostKillRatio: math.Inf(1),
	}
	for _, window := range []int{1, 8} {
		cfg := cluster.DefaultBenchConfig()
		cfg.Shards = shards
		cfg.Elements = elements
		cfg.Distinct = elements / 4
		cfg.Batch = 64
		if window > 1 {
			cfg.Window = window
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		res, err := cluster.RunSlidingFailoverBench(cfg, windowSlots, replicas, syncInterval)
		if err != nil {
			return nil, err
		}
		rep.Runs = append(rep.Runs, res)
		ratio := res.PostKillOpsPerSec / res.PreKillOpsPerSec
		if ratio < rep.WorstPostKillRatio {
			rep.WorstPostKillRatio = ratio
		}
		fmt.Fprintf(os.Stderr, "[sliding-failover-bench shards=%d replicas=%d w=%d window=%d: %.0f -> %.0f ops/s across kill (%.2fx), %d promotions, %.1f ms stalled]\n",
			shards, replicas, windowSlots, window, res.PreKillOpsPerSec, res.PostKillOpsPerSec, ratio, res.Failovers, res.FailoverStallSec*1000)
	}
	return rep, nil
}

// runReshardBench runs the online split+merge benchmark in both transport
// modes (one frame and eight frames in flight, flood mode so the wire is the
// bottleneck) at the sweep's largest shard count. Each run splits a shard
// live under mid-ingest load, measures throughput before/during/after plus
// the cutover stall, merges the ranges back, and internally fails if the
// final merged sample diverges from the centralized reference — so a
// successful section is also a correctness proof.
func runReshardBench(elements, shards, replicas int, syncInterval time.Duration, seed uint64) (*reshardReport, error) {
	rep := &reshardReport{
		Replicas:         replicas,
		SyncIntervalMS:   float64(syncInterval) / float64(time.Millisecond),
		WorstDuringRatio: math.Inf(1),
	}
	for _, window := range []int{1, 8} {
		cfg := cluster.DefaultBenchConfig()
		cfg.Shards = shards
		cfg.Elements = elements
		cfg.Distinct = elements / 4
		cfg.Batch = 64
		cfg.Flood = true
		if window > 1 {
			cfg.Window = window
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		res, err := cluster.RunReshardBench(cfg, replicas, syncInterval)
		if err != nil {
			return nil, err
		}
		rep.Runs = append(rep.Runs, res)
		ratio := res.DuringOpsPerSec / res.BeforeOpsPerSec
		if ratio < rep.WorstDuringRatio {
			rep.WorstDuringRatio = ratio
		}
		fmt.Fprintf(os.Stderr, "[reshard-bench shards=%d replicas=%d window=%d: %.0f -> %.0f -> %.0f ops/s across split (%.2fx during), cutover stall %.1f ms, %d+%d entries moved]\n",
			shards, replicas, window, res.BeforeOpsPerSec, res.DuringOpsPerSec, res.AfterOpsPerSec, ratio,
			res.SplitCutoverStallSec*1000, res.WarmEntries, res.SettleEntries)
	}
	return rep, nil
}

// runTracingBench measures the cost of trace sampling on the ingest hot
// path: the same flood-mode pipelined configuration (binary, batch 64,
// window 8) run with tracing off, at the 1% production rate, and at 100%.
// The rate is process-wide, so it is restored to 0 before returning no
// matter how the runs end.
func runTracingBench(elements, shards int, seed uint64) (*tracingReport, error) {
	rep := &tracingReport{Shards: shards}
	defer obs.SetTraceSampleRate(0)
	baseline := 0.0
	for _, rate := range []float64{0, 0.01, 1.0} {
		cfg := cluster.DefaultBenchConfig()
		cfg.Shards = shards
		cfg.Elements = elements
		cfg.Distinct = elements / 4
		cfg.Batch = 64
		cfg.Window = 8
		cfg.Flood = true
		if seed != 0 {
			cfg.Seed = seed
		}
		obs.SetTraceSampleRate(rate)
		res, err := cluster.RunIngestBench(cfg)
		if err != nil {
			return nil, err
		}
		if baseline == 0 {
			baseline = res.OpsPerSec
		}
		point := tracingPoint{SampleRate: rate, OpsPerSec: res.OpsPerSec, RelativeToOff: res.OpsPerSec / baseline}
		rep.Runs = append(rep.Runs, point)
		fmt.Fprintf(os.Stderr, "[tracing-bench shards=%d flood batch=64 window=8 sample=%g: %.0f ops/s (%.2fx of untraced)]\n",
			shards, rate, point.OpsPerSec, point.RelativeToOff)
	}
	rep.SpansRecorded = len(obs.Traces().Spans())
	return rep, nil
}

// sumFamily totals every counter whose name starts with the given family
// name (labels are baked into instrument names, so a labeled family is many
// counters).
func sumFamily(ms dds.MetricsSnapshot, family string) uint64 {
	var total uint64
	for _, c := range ms.Counters {
		if strings.HasPrefix(c.Name, family) {
			total += c.Value
		}
	}
	return total
}

// runPipelineSweep measures flood-mode batched-binary ingest across the
// given window sizes at the given shard count, at batch sizes 16 and 64.
func runPipelineSweep(elements, shards int, windowList string, seed uint64) (*pipelineReport, error) {
	rep := &pipelineReport{Shards: shards}
	for _, batch := range []int{16, 64} {
		sweep := pipelineSweep{Batch: batch}
		syncOps := 0.0
		for _, field := range strings.Split(windowList, ",") {
			window, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil || window < 1 {
				return nil, fmt.Errorf("ddsbench: bad -bench-windows entry %q", field)
			}
			cfg := cluster.DefaultBenchConfig()
			cfg.Shards = shards
			cfg.Elements = elements
			cfg.Distinct = elements / 4
			cfg.Batch = batch
			cfg.Flood = true
			if window > 1 {
				cfg.Window = window
			}
			if seed != 0 {
				cfg.Seed = seed
			}
			res, err := cluster.RunIngestBench(cfg)
			if err != nil {
				return nil, err
			}
			if syncOps == 0 {
				if window != 1 {
					return nil, fmt.Errorf("ddsbench: -bench-windows must start with 1 (the one-frame baseline), got %d", window)
				}
				syncOps = res.OpsPerSec
			}
			point := pipelinePoint{Window: window, OpsPerSec: res.OpsPerSec, SpeedupVsSync: res.OpsPerSec / syncOps}
			sweep.Windows = append(sweep.Windows, point)
			// Only pipelined points count toward the best speedup: the
			// window-1 baseline is 1.0x by construction, and letting it in
			// would make the -require-pipeline-speedup gate vacuous at 1.0.
			if window > 1 && point.SpeedupVsSync > rep.BestSpeedupVsSync {
				rep.BestSpeedupVsSync = point.SpeedupVsSync
				rep.BestBatch = batch
				rep.BestWindow = window
			}
			fmt.Fprintf(os.Stderr, "[pipeline-sweep shards=%d flood batch=%d window=%d: %.0f ops/s (%.2fx sync)]\n",
				shards, batch, window, point.OpsPerSec, point.SpeedupVsSync)
		}
		rep.Sweeps = append(rep.Sweeps, sweep)
	}
	return rep, nil
}
