package main

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sliding"
	"repro/internal/stream"
	"repro/internal/treap"
)

// The ladder times each layer's public function alone, on one goroutine and
// on the workload's own inputs, with testing.Benchmark. Beside the traced
// in-situ self times, the difference is what contention and the
// surrounding system cost.

// ladderBenchtime is the measuring time per function.
const ladderBenchtime = "150ms"

// Sinks keep the compiler from discarding the measured calls.
var (
	sinkU64   uint64
	sinkF64   float64
	sinkInt   int
	sinkBytes []byte
	sinkState core.State
	sinkMerge []netsim.SampleEntry
)

type rung struct {
	name   string // metric prefix
	scale  float64
	suffix string // "_ns" or "_us"
	fn     func(b *testing.B)
}

// ladder runs every rung and returns its metrics. endStates are the shard
// primaries' final states; shardSamples the last read's per-shard samples.
func (b *bench) ladder(endStates []core.State, shardSamples [][]netsim.SampleEntry) (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", ladderBenchtime); err != nil {
		return nil, err
	}
	if len(endStates) == 0 || len(shardSamples) < 2 {
		return nil, fmt.Errorf("ladder: no end state from the traced run")
	}
	in := b.in
	n := min(in.len(), 1<<20)
	keys := func(i int) string { return in.key(i % n) }
	h := newHasher()
	units := make([]float64, n)
	for i := range units {
		units[i] = h.Unit(in.key(i))
	}
	st := endStates[0]
	encoded := core.EncodeState(st)
	// The site runs at its shard's final threshold: the largest retained
	// hash once the shard's sample is full.
	u := 1.0
	if len(st.Sections) > 0 {
		if e := st.Sections[0].Entries; st.Kind == core.StateInfinite && len(e) >= st.SampleSize && len(e) > 0 {
			u = e[len(e)-1].Hash
		}
	}
	window := max(b.w.window, 32)
	slotLen := max(in.slotLen, closedBlock)

	rungs := []rung{
		{name: "ladder.hash", suffix: "_ns", scale: 1, fn: func(tb *testing.B) {
			for i := 0; i < tb.N; i++ {
				sinkU64 += h.Hash(keys(i))
			}
		}},
		{name: "ladder.unit", suffix: "_ns", scale: 1, fn: func(tb *testing.B) {
			for i := 0; i < tb.N; i++ {
				sinkF64 += h.Unit(keys(i))
			}
		}},
		{name: "ladder.route", suffix: "_ns", scale: 1, fn: func(tb *testing.B) {
			router := cluster.NewShardRouter(shards, h)
			for i := 0; i < tb.N; i++ {
				sinkInt += router.Shard(keys(i))
			}
		}},
		{name: "ladder.site_arrival", suffix: "_ns", scale: 1, fn: func(tb *testing.B) {
			var out netsim.Outbox
			if b.w.window > 0 {
				// The workload's own site: Algorithm 3 on its window store.
				site := sliding.NewSite(0, h, window, 1)
				for i := 0; i < tb.N; i++ {
					out.Reset()
					site.OnArrival(keys(i), int64(i/slotLen), &out)
				}
				return
			}
			site := core.NewInfiniteSite(0, h)
			site.OnMessage(netsim.Message{Kind: netsim.KindThreshold, U: u}, 0, &out)
			tb.ResetTimer()
			for i := 0; i < tb.N; i++ {
				out.Reset()
				site.OnArrival(keys(i), 0, &out)
			}
		}},
		{name: "ladder.coord_offer", suffix: "_ns", scale: 1, fn: func(tb *testing.B) {
			coord := core.NewInfiniteCoordinator(b.w.sampleSize)
			var out netsim.Outbox
			for i := 0; i < tb.N; i++ {
				out.Reset()
				coord.OnMessage(netsim.Message{Kind: netsim.KindOffer, Key: keys(i), Hash: units[i%n]}, 0, &out)
			}
		}},
		{name: "ladder.encode_state", suffix: "_us", scale: 1e-3, fn: func(tb *testing.B) {
			for i := 0; i < tb.N; i++ {
				sinkBytes = core.EncodeState(st)
			}
		}},
		{name: "ladder.decode_state", suffix: "_us", scale: 1e-3, fn: func(tb *testing.B) {
			for i := 0; i < tb.N; i++ {
				var err error
				if sinkState, err = core.DecodeState(encoded); err != nil {
					tb.Fatal(err)
				}
			}
		}},
		{name: "ladder.window_observe", suffix: "_ns", scale: 1, fn: func(tb *testing.B) {
			ws := treap.NewWindowStore(1)
			for i := 0; i < tb.N; i++ {
				ws.Observe(keys(i), units[i%n], int64(i/slotLen)+window-1)
			}
			sinkInt += ws.Len()
		}},
		{name: "ladder.merge", suffix: "_us", scale: 1e-3, fn: func(tb *testing.B) {
			for i := 0; i < tb.N; i++ {
				sinkMerge = cluster.Merge(b.w.sampleSize, shardSamples[0], shardSamples[1])
			}
		}},
	}
	out := make(map[string]float64, 2*len(rungs))
	for _, r := range rungs {
		res := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			r.fn(tb)
		})
		if res.N == 0 {
			return nil, fmt.Errorf("%s: benchmark failed", r.name)
		}
		out[r.name+r.suffix] = float64(res.T.Nanoseconds()) / float64(res.N) * r.scale
		out[r.name+"_allocs"] = float64(res.MemAllocs) / float64(res.N)
	}
	return out, nil
}

// seqPrefix caps the elements the sequential baseline replays, bounding its
// arrival slice.
const seqPrefix = 1 << 20

// sequential plays (a prefix of) the stream through the paper's engine of
// record — core.NewSystem or sliding.NewSystem with one site, driven by
// netsim.Runner.RunSequential — and checks its final sample.
func (b *bench) sequential() (eps, msgsPerK float64, err error) {
	in := b.in
	n := min(in.len(), seqPrefix)
	arrivals := make([]stream.Arrival, n)
	for i := range arrivals {
		arrivals[i] = stream.Arrival{Slot: in.slot(i), Key: in.key(i)}
	}
	var (
		sys  netsim.Runner
		want expected
	)
	if b.w.window > 0 {
		s := sliding.NewSystem(1, b.w.window, newHasher(), 1)
		sys = netsim.Runner{Sites: s.Sites, Coordinator: s.Coordinator}
		want = expectWindow(in, n, b.w.window)
	} else {
		s := core.NewSystem(1, b.w.sampleSize, newHasher())
		sys = netsim.Runner{Sites: s.Sites, Coordinator: s.Coordinator}
		want = expectInfinite(in, n, b.w.sampleSize)
	}
	start := time.Now()
	m, err := sys.RunSequential(arrivals)
	if err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	if err := want.check(m.FinalSample); err != nil {
		return 0, 0, fmt.Errorf("sequential engine: %w", err)
	}
	return float64(n) / elapsed.Seconds(), float64(m.TotalMessages()) * 1000 / float64(n), nil
}
