// Package repro_test holds the repository-level benchmark harness: one
// benchmark per table and figure of the paper's evaluation (each regenerates
// the corresponding series at reduced scale and reports the headline numbers
// as benchmark metrics), plus micro-benchmarks of the building blocks.
//
// Run everything with:
//
//	go test -bench=. -benchmem ./...
//
// Full-scale series (paper-sized datasets and run counts) are produced by
// cmd/ddsbench with the -paper flag rather than by these benchmarks.
package repro_test

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/experiments"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/sliding"
	"repro/internal/stream"
	"repro/internal/treap"
	"repro/internal/wire"
)

// benchConfig is the experiment configuration used by the per-figure
// benchmarks: single runs on small synthetic datasets so that each benchmark
// iteration completes quickly while still exercising the full pipeline.
func benchConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Runs = 1
	cfg.SlidingRuns = 1
	return cfg
}

// lastCell extracts a numeric cell from the final row of a table, used to
// surface experiment outputs as benchmark metrics.
func lastCell(t *experiments.Table, col int) float64 {
	if len(t.Rows) == 0 {
		return 0
	}
	v, err := strconv.ParseFloat(t.Rows[len(t.Rows)-1][col], 64)
	if err != nil {
		return 0
	}
	return v
}

func benchExperiment(b *testing.B, id string, metricCol int, metricName string) {
	b.Helper()
	runner, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := benchConfig()
	var last float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table := runner.Run(cfg)
		last = lastCell(table, metricCol)
	}
	b.ReportMetric(last, metricName)
}

// --- one benchmark per table / figure --------------------------------------

func BenchmarkTable51_DatasetStats(b *testing.B) {
	benchExperiment(b, "table5.1", 3, "distinct_elements")
}

func BenchmarkFigure51_Distribution(b *testing.B) {
	benchExperiment(b, "fig5.1", 3, "final_messages")
}

func BenchmarkFigure52_SampleSize(b *testing.B) {
	benchExperiment(b, "fig5.2", 3, "messages_at_s100")
}

func BenchmarkFigure53_Sites(b *testing.B) {
	benchExperiment(b, "fig5.3", 3, "messages_at_k100")
}

func BenchmarkFigure54_Broadcast(b *testing.B) {
	benchExperiment(b, "fig5.4", 3, "broadcast_final_messages")
}

func BenchmarkFigure55_BroadcastSampleSize(b *testing.B) {
	benchExperiment(b, "fig5.5", 3, "broadcast_messages_at_s100")
}

func BenchmarkFigure56_DominateRate(b *testing.B) {
	benchExperiment(b, "fig5.6", 3, "broadcast_messages_at_rate1000")
}

func BenchmarkFigure57_WindowMemory(b *testing.B) {
	benchExperiment(b, "fig5.7", 2, "mean_memory_at_w5000")
}

func BenchmarkFigure58_WindowMessages(b *testing.B) {
	benchExperiment(b, "fig5.8", 2, "messages_at_w5000")
}

func BenchmarkFigure59_SitesMemory(b *testing.B) {
	benchExperiment(b, "fig5.9", 2, "mean_memory_at_k50")
}

func BenchmarkFigure510_SitesMessages(b *testing.B) {
	benchExperiment(b, "fig5.10", 2, "messages_at_k50")
}

// --- extension experiments --------------------------------------------------

func BenchmarkExtension_DDSvsDRS(b *testing.B) {
	benchExperiment(b, "ext.drs", 3, "dds_over_drs_at_k100")
}

func BenchmarkExtension_BoundCheck(b *testing.B) {
	benchExperiment(b, "ext.bounds", 7, "measured_over_upper")
}

func BenchmarkExtension_WithReplacement(b *testing.B) {
	benchExperiment(b, "ext.wr", 3, "wr_over_wor_at_s50")
}

func BenchmarkExtension_Engines(b *testing.B) {
	benchExperiment(b, "ext.engines", 1, "concurrent_messages")
}

func BenchmarkExtension_TreapBound(b *testing.B) {
	benchExperiment(b, "ext.treap", 1, "mean_store_at_w5000")
}

func BenchmarkExtension_DuplicateAblation(b *testing.B) {
	benchExperiment(b, "ext.dupes", 2, "naive_messages")
}

func BenchmarkExtension_MultiWindow(b *testing.B) {
	benchExperiment(b, "ext.swindow", 1, "messages_at_s20")
}

// --- micro-benchmarks of the building blocks --------------------------------

func BenchmarkMurmur2Hash(b *testing.B) {
	h := hashing.NewMurmur2(1)
	key := "192.0.2.17->198.51.100.3"
	b.SetBytes(int64(len(key)))
	for i := 0; i < b.N; i++ {
		_ = h.Unit(key)
	}
}

func BenchmarkMurmur3Hash(b *testing.B) {
	h := hashing.NewMurmur3(1)
	key := "someone@enron.com->someone.else@enron.com"
	b.SetBytes(int64(len(key)))
	for i := 0; i < b.N; i++ {
		_ = h.Unit(key)
	}
}

func BenchmarkTreapInsertDelete(b *testing.B) {
	tr := treap.NewWithSeed[int, int](func(a, c int) bool { return a < c }, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Set(i%8192, i)
		if i%3 == 0 {
			tr.Delete((i - 512) % 8192)
		}
	}
}

func BenchmarkWindowStoreObserve(b *testing.B) {
	h := hashing.NewMurmur2(3)
	w := treap.NewWindowStore(7)
	keys := make([]string, 4096)
	hashes := make([]float64, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		hashes[i] = h.Unit(keys[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % len(keys)
		w.Observe(keys[idx], hashes[idx], int64(i+1000))
		if i%16 == 0 {
			w.ExpireBefore(int64(i - 500))
		}
	}
}

// BenchmarkInfiniteSamplerThroughput measures end-to-end element processing
// throughput of the infinite-window system on the sequential engine.
func BenchmarkInfiniteSamplerThroughput(b *testing.B) {
	elements := dataset.Uniform(50000, 10000, 3).Generate()
	arrivals := distribute.Apply(elements, distribute.NewRandom(8, 5))
	b.SetBytes(0)
	b.ResetTimer()
	var msgs int
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(8, 20, hashing.NewMurmur2(uint64(i)+1))
		m, err := sys.Runner(0, 0).RunSequential(arrivals)
		if err != nil {
			b.Fatal(err)
		}
		msgs = m.TotalMessages()
	}
	b.ReportMetric(float64(len(arrivals))*float64(b.N)/b.Elapsed().Seconds(), "elements/s")
	b.ReportMetric(float64(msgs), "messages")
}

// BenchmarkInfiniteSamplerConcurrent measures the goroutine/channel engine on
// the same workload.
func BenchmarkInfiniteSamplerConcurrent(b *testing.B) {
	elements := stream.Reslot(dataset.Uniform(50000, 10000, 3).Generate(), 100)
	arrivals := distribute.Apply(elements, distribute.NewRandom(8, 5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(8, 20, hashing.NewMurmur2(uint64(i)+1))
		if _, err := sys.Runner(0, 0).RunConcurrent(arrivals); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(arrivals))*float64(b.N)/b.Elapsed().Seconds(), "elements/s")
}

// BenchmarkClusterIngest measures real TCP ingest into the sharded cluster
// subsystem across the transport matrix: the JSON-per-offer baseline versus
// the batched binary codec, one frame versus a deeper window in flight, at 1
// shard and at 4 shards. Each iteration replays the full synthetic stream
// through concurrent site clients and cross-checks the merged sample against
// the centralized reference. The flood cases put one offer per element on the
// wire (transport-bound); the rest run the protocol's own offer filter.
func BenchmarkClusterIngest(b *testing.B) {
	cases := []struct {
		name   string
		shards int
		codec  wire.Codec
		batch  int
		window int
		flood  bool
	}{
		{"shards1-json-per-offer", 1, wire.CodecJSON, 1, 0, false},
		{"shards1-binary-batch64", 1, wire.CodecBinary, 64, 0, false},
		{"shards4-json-per-offer", 4, wire.CodecJSON, 1, 0, false},
		{"shards4-binary-batch64", 4, wire.CodecBinary, 64, 0, false},
		{"shards4-binary-batch64-win8", 4, wire.CodecBinary, 64, 8, false},
		{"shards4-flood-sync", 4, wire.CodecBinary, 64, 0, true},
		{"shards4-flood-win8", 4, wire.CodecBinary, 64, 8, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := cluster.DefaultBenchConfig()
			cfg.Shards = c.shards
			cfg.Codec = c.codec
			cfg.Batch = c.batch
			cfg.Window = c.window
			cfg.Flood = c.flood
			var last *cluster.BenchResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cluster.RunIngestBench(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.OpsPerSec, "elements/s")
			b.ReportMetric(last.MsgsPerElement, "msgs/element")
		})
	}
}

// BenchmarkSlidingSamplerThroughput measures the sliding-window system.
func BenchmarkSlidingSamplerThroughput(b *testing.B) {
	elements := stream.Reslot(dataset.Uniform(30000, 6000, 9).Generate(), 5)
	arrivals := distribute.Apply(elements, distribute.NewRandom(10, 4))
	b.ResetTimer()
	var metrics *netsim.Metrics
	for i := 0; i < b.N; i++ {
		sys := sliding.NewSystem(10, 500, hashing.NewMurmur2(uint64(i)+77), 3)
		m, err := sys.Runner(0, 0).RunSequential(arrivals)
		if err != nil {
			b.Fatal(err)
		}
		metrics = m
	}
	b.ReportMetric(float64(len(arrivals))*float64(b.N)/b.Elapsed().Seconds(), "elements/s")
	b.ReportMetric(float64(metrics.TotalMessages()), "messages")
}
