package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names one kind of span the benchmark records.
type spanKind uint8

const (
	kBlock   spanKind = iota // consecutive SiteClient.Observe calls (one request)
	kObserve                 // one sampled SiteClient.Observe
	kHash                    // hashing: the route digest (Hash)
	kUnit                    // hashing: the unit hash (Unit)
	kArrival                 // site node OnArrival
	kFlush                   // SiteClient.Flush fan-out (one request)
	kEndSlot                 // SiteClient.EndSlot fan-out (one request)
	kQuery                   // one read (one request)
	kProbe                   // wire.ProbeEpoch, one shard
	kFetch                   // wire.QueryWith (wire.SnapshotAddr for windows), one shard
	kMerge                   // cluster.Merge (MergeWindow for windows)
	numKinds
)

var kindNames = [numKinds]string{
	"cluster.observe_block", "cluster.observe", "hashing.hash", "hashing.unit",
	"site.on_arrival", "cluster.flush", "cluster.end_slot", "query",
	"wire.probe_epoch", "wire.query", "cluster.merge",
}

// probes are the per-element seams. A sampled element times exactly one of
// them, in rotation, so no timed span contains another and the clock's own
// cost is the only overhead inside a span; self times are differences of
// the per-seam means.
var probes = [...]spanKind{kObserve, kHash, kArrival, kUnit}

const (
	// sampleEvery: one element in this many times a seam. Timing every
	// element would double the cost of the filtered path.
	sampleEvery = 16
	// coordSampleEvery: one coordinator OnMessage in this many is timed.
	coordSampleEvery = 8
	// maxSpans bounds the spans kept for the dump; every span still counts
	// in the per-kind totals.
	maxSpans = 200_000
)

// span is one recorded interval. Spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// kindStat totals one span kind: count and duration net of the clock.
type kindStat struct{ n, total int64 }

func (s kindStat) mean() float64 { return ratio(float64(s.total), float64(s.n)) }

// tracer records spans in memory and writes them out at the end.
type tracer struct {
	epoch time.Time
	// clock is what an empty span measures, subtracted from every span;
	// probeCost is the wall time timing one sampled element adds beyond its
	// span, removed from the budget's wall time.
	clock, probeCost int64

	probe atomic.Uint32 // 1 + the seam the current Observe times; 0: none
	ids   atomic.Uint64
	// The site goroutine's current request and offer-block span.
	req, block uint64

	mu      sync.Mutex
	spans   []span
	dropped int
	stats   [numKinds]kindStat
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
	t.calibrate()
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// calibrate measures the tracer's own costs on a throwaway tracer.
func (t *tracer) calibrate() {
	const n = 20000
	durs := make([]float64, n)
	for i := range durs {
		a := t.now()
		durs[i] = float64(t.now() - a)
	}
	t.clock = int64(median(durs))
	spare := &tracer{epoch: t.epoch, clock: t.clock, spans: make([]span, 0, n)}
	const rounds = 50
	costs := make([]float64, rounds)
	for r := range costs {
		a := t.now()
		for i := 0; i < n/rounds; i++ {
			spare.probe.Store(uint32(kHash) + 1)
			if spare.probing(kHash) {
				spare.seam(kHash, spare.now())
			}
			spare.probe.Store(0)
		}
		costs[r] = float64(t.now()-a) / float64(n/rounds)
	}
	t.probeCost = int64(median(costs)) - t.clock
}

func (t *tracer) newRequest() { t.req = t.ids.Add(1) }

// probing reports whether the current sampled element times seam k.
func (t *tracer) probing(k spanKind) bool { return t.probe.Load() == uint32(k)+1 }

// seam records a per-element span that began at start, under the current
// offer block. Only the site goroutine calls it.
func (t *tracer) seam(k spanKind, start int64) {
	end := t.now() // before taking an ID, so the span holds only the clock
	t.add(k, span{Req: t.req, ID: t.ids.Add(1), Parent: t.block, Start: start, End: end})
}

// add records one finished span.
func (t *tracer) add(k spanKind, sp span) {
	t.mu.Lock()
	st := &t.stats[k]
	st.n++
	st.total += sp.End - sp.Start - t.clock
	if len(t.spans) < maxSpans {
		sp.Name = kindNames[k]
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *tracer) stat(k spanKind) kindStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats[k]
}

// write dumps the kept spans as JSON lines, ordered by start.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
