// Command perfbench is the sampler's benchmark. It brings a two-shard
// cluster up in-process through the public dds API, drives one workload from
// a seeded generator, checks every run's merged sample against the
// reference, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced: a
// run repeats the workload on fresh clusters, reads rates and read latencies
// at the edge of its fastest tenth of repetitions (see quiet), and takes the
// median of the rest. With --trace 1 the run alternates untraced repetitions with repetitions on
// a traced stack and reports the per-layer budget, the isolated layer
// ladder and the sequential engine-of-record baseline instead.
//
// Build and run it with perfbench/run.sh from the repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: filtered, flood, query-mix or sliding")
	seed := fs.Uint64("seed", 1, "seed of the generated input")
	seconds := fs.Int("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced stack and reports per-layer metrics")
	workDir := fs.String("work-dir", ".bench_build", "directory for spools and span dumps")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	// A hung cluster must not hold the run past its time limit.
	watchdog := time.AfterFunc(time.Duration(*seconds)*time.Second+100*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()
	if err := run(*name, *seed, *seconds, *trace == 1, *workDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// bench is one invocation: a workload, its generated input and the answer a
// correct cluster must give.
type bench struct {
	w         workload
	seed      uint64
	workDir   string
	in        *input
	want      expected
	inputHeap float64 // live heap with only the input generated

	// Traced runs only.
	tr     *tracer
	layers *layerAcc
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, seed uint64, seconds int, traced bool, workDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", seconds)
	}
	b := &bench{w: w, seed: seed, workDir: workDir}
	b.in = generate(w.shape, w.elements, w.slotLen, seed)
	if w.window > 0 {
		b.want = expectWindow(b.in, b.in.len(), w.window)
	} else {
		b.want = expectInfinite(b.in, b.in.len(), w.sampleSize)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.inputHeap = float64(ms.HeapAlloc)
	fmt.Printf("workload %s seed %d: %d elements, %d distinct\n", w.name, seed, b.in.len(), b.in.distinct())

	budget := time.Duration(seconds) * time.Second
	var res *result
	if traced {
		res, err = b.runTraced(budget)
	} else {
		res, err = b.runEndToEnd(budget)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// outcome pools what a run's repetitions measured.
type outcome struct {
	reps    []*rep
	calls   calls
	correct bool
}

// warmup is how long a run repeats before it starts measuring (at least one
// repetition): in a fresh process, the first few seconds of query-mix read
// with a 90th percentile up to twice that of later repetitions.
const warmup = time.Second

// repeat runs warm-up repetitions for the warm duration (at least one),
// calling each with a negative index, then measured ones until the budget is
// spent (at least minReps), calling each with the repetition index. Warm-up
// repetitions are checked and their calls counted, but what they measured is
// dropped. A repetition that fails is counted and the run goes on; a run
// without one good measured repetition fails.
func (b *bench) repeat(warm, budget time.Duration, minReps int, each func(i int) (*rep, error)) (*outcome, error) {
	o := &outcome{correct: true}
	var lastErr error
	start := time.Now()
	for i := -1; i == -1 || time.Since(start) < warm; i-- {
		r, err := each(i)
		o.count(i, r, err)
	}
	start = time.Now()
	for i := 0; i < minReps || time.Since(start) < budget; i++ {
		r, err := each(i)
		if !o.count(i, r, err) {
			lastErr = err
			continue
		}
		fmt.Printf("repetition %d: ingest %.6g elements/s, setup %.3g ms, %d reads, p50 %.4g ms, p90 %.4g ms\n",
			i, r.ingestEPS(b.in.len()), ms(r.setup), len(r.queries),
			percentile(r.queries, 0.5).Value, percentile(r.queries, 0.9).Value)
		o.reps = append(o.reps, r)
	}
	if len(o.reps) == 0 {
		return nil, fmt.Errorf("no repetition succeeded: %w", lastErr)
	}
	return o, nil
}

// count adds repetition i's calls and sample check to the outcome and
// reports whether it succeeded.
func (o *outcome) count(i int, r *rep, err error) bool {
	if r != nil {
		o.calls.attempted += r.calls.attempted
		o.calls.failed += r.calls.failed
		if r.checkErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: repetition %d: sample check: %v\n", i, r.checkErr)
			o.correct = false
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: repetition %d: %v\n", i, err)
		if r == nil || r.calls.failed == 0 {
			o.calls.attempted++
			o.calls.failed++
		}
		return false
	}
	return true
}

// each returns f of every repetition.
func (o *outcome) each(f func(r *rep) float64) []float64 {
	vals := make([]float64, len(o.reps))
	for i, r := range o.reps {
		vals[i] = f(r)
	}
	return vals
}

func (o *outcome) median(f func(r *rep) float64) float64 { return median(o.each(f)) }

// runEndToEnd measures the end-to-end metrics on the public-API stack.
func (b *bench) runEndToEnd(budget time.Duration) (*result, error) {
	ctx := context.Background()
	n := float64(b.in.len())
	o, err := b.repeat(warmup, budget, 3, func(int) (*rep, error) { return b.runRep(ctx, false) })
	if err != nil {
		return nil, err
	}
	eps := o.each(func(r *rep) float64 { return r.ingestEPS(b.in.len()) })
	p50s := o.each(func(r *rep) float64 { return percentile(r.queries, 0.5).Value })
	p90s := o.each(func(r *rep) float64 { return percentile(r.queries, 0.9).Value })
	vals := map[string]float64{
		"ingest_eps":     quiet(eps, true),
		"msgs_per_kelem": o.median(func(r *rep) float64 { return float64(r.msgs) * 1000 / n }),
		"setup_s":        o.median(func(r *rep) float64 { return r.setup.Seconds() }),
		"query_p50_ms":   quiet(p50s, false),
		"query_p90_ms":   quiet(p90s, false),
		"heap_mb":        o.median(func(r *rep) float64 { return r.heap / (1 << 20) }),
	}
	res := b.report(endToEnd, vals, o)
	shortest := o.reps[0]
	for _, r := range o.reps {
		if len(r.queries) < len(shortest.queries) {
			shortest = r
		}
	}
	p90 := percentile(shortest.queries, 0.9)
	validity := "valid"
	if !p90.valid(10) {
		validity = "not valid: fewer than 10 beyond it"
	}
	fmt.Printf("%d repetitions (ingest_eps median %.6g, query_p50_ms median %.4g, query_p90_ms median %.4g); "+
		"each repetition's query_p90_ms is over at least %d reads, %d beyond it (%s)\n",
		len(o.reps), median(eps), median(p50s), median(p90s), p90.N, p90.Beyond, validity)
	fmt.Printf("error_rate %.6g (failed %d of %d calls)\n", ratio(float64(o.calls.failed), float64(o.calls.attempted)), o.calls.failed, o.calls.attempted)
	return res, nil
}

// report prints every metric of specs and builds the result.
func (b *bench) report(specs []metricSpec, vals map[string]float64, o *outcome) *result {
	res := &result{Correct: o.correct, Attempted: o.calls.attempted, Failed: o.calls.failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		v := vals[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		fmt.Printf("%-32s %14.6g %s\n", s.name, v, s.unit)
	}
	return res
}

// runTraced alternates untraced and traced repetitions, then runs the ladder
// and the sequential baseline, and reports the per-layer metrics.
func (b *bench) runTraced(budget time.Duration) (*result, error) {
	ctx := context.Background()
	b.tr = newTracer()
	b.layers = &layerAcc{}
	var untraced, traced []*rep
	o, err := b.repeat(warmup, budget, 4, func(i int) (*rep, error) {
		on := i%2 == 1
		setTracing(on)
		defer setTracing(false)
		r, err := b.runRep(ctx, on)
		if err == nil && i >= 0 {
			if on {
				traced = append(traced, r)
			} else {
				untraced = append(untraced, r)
			}
		}
		return r, err
	})
	if err != nil {
		return nil, err
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return nil, fmt.Errorf("need both traced and untraced repetitions")
	}
	vals, err := b.layerMetrics(untraced, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		o.correct = false
	}

	ladder, err := b.ladder(b.layers.endStates, b.layers.shardSamples)
	if err != nil {
		return nil, err
	}
	for k, v := range ladder {
		vals[k] = v
	}
	if vals["netsim.seq_eps"], vals["netsim.seq_msgs_per_kelem"], err = b.sequential(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		o.correct = false
	}
	path := filepath.Join(b.workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
	if err := b.tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("%d untraced and %d traced repetitions; %d spans kept in %s (%d more counted only)\n",
		len(untraced), len(traced), len(b.tr.spans), path, b.tr.dropped)
	return b.report(perLayer, vals, o), nil
}
