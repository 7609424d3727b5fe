package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/dds"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/sliding"
	"repro/internal/wire"
)

// ingestClient is the part of a site client the feeder calls. *dds.Client
// implements it; observeClient adapts a bare cluster.SiteClient.
type ingestClient interface {
	Offer(key string, slot int64) error
	EndSlot(slot int64) error
	Flush() error
	Close() error
}

// observeClient adapts cluster.SiteClient, which flood drives directly because
// dds.Open has no seam for a custom site node.
type observeClient struct{ sc *cluster.SiteClient }

func (c observeClient) Offer(key string, slot int64) error { return c.sc.Observe(key, slot) }
func (c observeClient) EndSlot(slot int64) error           { return c.sc.EndSlot(slot) }
func (c observeClient) Flush() error                       { return c.sc.Flush() }
func (c observeClient) Close() error                       { return c.sc.Close() }

// floodSite is the benchmark's unfiltered site: it offers every arrival to
// the coordinator and ignores the threshold replies, so Algorithm 1's filter
// is bypassed and every element crosses the wire. The coordinator's
// bottom-s set drops duplicates, so the sample stays exact.
type floodSite struct {
	id     int
	hasher hashing.UnitHasher
}

func (s *floodSite) ID() int { return s.id }
func (s *floodSite) OnArrival(key string, _ int64, out *netsim.Outbox) {
	out.ToCoordinator(netsim.Message{Kind: netsim.KindOffer, Key: key, Hash: s.hasher.Unit(key)})
}
func (s *floodSite) OnMessage(netsim.Message, int64, *netsim.Outbox) {}
func (s *floodSite) OnSlotEnd(int64, *netsim.Outbox)                 {}
func (s *floodSite) Memory() int                                     { return 0 }

// newSite builds the site node one shard of the client runs, exactly as
// dds.Open would (flood: the unfiltered node).
func (b *bench) newSite(shard int, hasher hashing.UnitHasher) netsim.SiteNode {
	switch {
	case b.w.unfiltered:
		return &floodSite{hasher: hasher}
	case b.w.window > 0:
		return sliding.NewSite(0, hasher, b.w.window, uint64(shard)+1)
	default:
		return core.NewInfiniteSite(0, hasher)
	}
}

// newCoord builds one shard member's coordinator, exactly as dds.Serve would.
func (b *bench) newCoord() snapCoord {
	if b.w.window > 0 {
		return sliding.NewCoordinator()
	}
	return core.NewInfiniteCoordinator(b.w.sampleSize)
}

// deployment is one running cluster plus the site client ingesting into it,
// whichever stack built them.
type deployment struct {
	client ingestClient
	// query reads the merged sample (asOf is the slot clock of a
	// sliding-window query).
	query queryFunc
	// stats returns the cluster's totals of offers received and replies sent.
	stats func() (offers, replies int)
	// groups are the shard groups' member addresses.
	groups [][]string
	close  func() error
}

// spoolDir makes a fresh snapshot-spool directory under the work directory.
func (b *bench) spoolDir() (string, error) {
	base := filepath.Join(b.workDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "spool-")
}

// startDDS brings the cluster up through the public API: dds.Serve, then
// dds.Open (flood: cluster.DialGroups with the unfiltered site). Queries go
// through dds.QueryAsOf.
func (b *bench) startDDS(ctx context.Context) (*deployment, error) {
	w := b.w
	opts := []dds.Option{dds.WithCodec(dds.CodecBinary), dds.WithWindow(w.window)}
	serveOpts := append([]dds.Option{dds.WithReplicas(w.replicas)}, opts...)
	if w.syncInterval > 0 {
		serveOpts = append(serveOpts, dds.WithSyncInterval(w.syncInterval))
	}
	var dir string
	if w.spoolInterval > 0 {
		var err error
		if dir, err = b.spoolDir(); err != nil {
			return nil, err
		}
		serveOpts = append(serveOpts, dds.WithDataDir(dir), dds.WithSnapInterval(w.spoolInterval))
	}
	cfg := dds.Config{Listen: "127.0.0.1:0", Shards: shards, SampleSize: w.sampleSize}
	cl, err := dds.Serve(ctx, cfg, serveOpts...)
	if err != nil {
		return nil, err
	}
	closeCluster := func() error {
		err := cl.Close()
		if dir != "" {
			_ = os.RemoveAll(dir) // throwaway spool; a leftover costs only disk
		}
		return err
	}
	groups := cl.Groups()
	ccfg := dds.Config{Coordinators: groups, SampleSize: w.sampleSize}
	var client ingestClient
	if w.unfiltered {
		hasher := newHasher()
		sc, err := cluster.DialGroups(groups, cluster.NewShardRouter(len(groups), hasher),
			func(shard int) netsim.SiteNode { return b.newSite(shard, hasher) },
			wire.Options{Codec: wire.CodecBinary, BatchSize: batch, Window: pipeline})
		if err != nil {
			_ = closeCluster()
			return nil, err
		}
		client = observeClient{sc}
	} else {
		c, err := dds.Open(ctx, ccfg, append([]dds.Option{dds.WithBatch(batch), dds.WithPipelining(pipeline)}, opts...)...)
		if err != nil {
			_ = closeCluster()
			return nil, err
		}
		client = c
	}
	return &deployment{
		client: client,
		query: func(ctx context.Context, asOf int64) ([]netsim.SampleEntry, error) {
			s, err := dds.QueryAsOf(ctx, asOf, ccfg, opts...)
			if err != nil {
				return nil, err
			}
			out := make([]netsim.SampleEntry, len(s))
			for i, e := range s {
				out[i] = netsim.SampleEntry{Key: e.Key, Hash: e.Hash, Expiry: e.Expiry}
			}
			return out, nil
		},
		stats: func() (int, int) {
			offers, replies, _ := cl.Stats()
			return offers, replies
		},
		groups: groups,
		close: func() error {
			cerr := client.Close()
			if err := closeCluster(); cerr == nil {
				cerr = err
			}
			return cerr
		},
	}, nil
}

// calls counts attempted and failed client calls (Offer, EndSlot, Flush,
// Query) for the error rate.
type calls struct {
	attempted, failed int
}

func (c *calls) do(err error) error {
	c.attempted++
	if err != nil {
		c.failed++
	}
	return err
}

// feeder feeds the stream into one client: blocks of consecutive offers, an
// EndSlot at every slot boundary, and a final Flush. A nil tracer runs the
// plain loop; otherwise traced.go's instrumented one.
type feeder struct {
	b       *bench
	c       ingestClient
	tr      *tracer
	calls   calls
	offerNs int64     // wall time spent inside offer blocks
	sched   *schedule // open-loop workloads: block j's due time
}

const (
	closedBlock = 4096             // offers per block in closed loop
	paceTick    = time.Millisecond // open-loop ingest releases one block per tick
)

// blockLen is the number of consecutive offers per block: one tick's worth of
// the paced rate for open-loop ingest, otherwise closedBlock (cut at slot
// boundaries).
func (d *feeder) blockLen() int {
	if d.b.w.paced() {
		return max(1, int(d.b.w.ingestRate*paceTick.Seconds()))
	}
	return closedBlock
}

// run ingests the whole stream and returns the wall time from the first
// offer until the final Flush returned. Open-loop workloads release block j
// at its due time.
func (d *feeder) run() (time.Duration, error) {
	in := d.b.in
	n := in.len()
	blockLen := d.blockLen()
	start := time.Now()
	var sched *schedule
	if d.b.w.paced() {
		sched = newSchedule(start, paceTick)
		d.sched = sched
	}
	for lo, j := 0, 0; lo < n; j++ {
		hi := min(lo+blockLen, n)
		if in.slotLen > 0 {
			hi = min(hi, int(in.slot(lo)+1)*in.slotLen)
		}
		if sched != nil {
			sched.wait(j)
			sched.begin(j, time.Now())
		}
		var err error
		if d.tr != nil {
			err = d.tracedBlock(lo, hi)
		} else {
			err = d.block(lo, hi)
		}
		if err != nil {
			return 0, err
		}
		lo = hi
		if in.slotLen > 0 && (lo == n || in.slot(lo) != in.slot(lo-1)) {
			slot := in.slot(lo - 1)
			if err := d.drain(kEndSlot, func() error { return d.c.EndSlot(slot) }); err != nil {
				return 0, fmt.Errorf("end slot %d: %w", slot, err)
			}
		}
	}
	if err := d.drain(kFlush, d.c.Flush); err != nil {
		return 0, fmt.Errorf("flush: %w", err)
	}
	return time.Since(start), nil
}

// block offers elements [lo, hi).
func (d *feeder) block(lo, hi int) error {
	in := d.b.in
	t0 := time.Now()
	for i := lo; i < hi; i++ {
		if err := d.calls.do(d.c.Offer(in.key(i), in.slot(i))); err != nil {
			return fmt.Errorf("offer %d: %w", i, err)
		}
	}
	d.offerNs += int64(time.Since(t0))
	return nil
}

// drain runs one EndSlot or Flush, as a span of its own when traced.
func (d *feeder) drain(k spanKind, op func() error) error {
	if d.tr == nil {
		return d.calls.do(op())
	}
	tr := d.tr
	tr.newRequest()
	start := tr.now()
	err := op()
	tr.add(k, span{Req: tr.req, ID: tr.ids.Add(1), Start: start, End: tr.now()})
	return d.calls.do(err)
}

// rep is what one repetition measured: a fresh cluster, one full ingest of
// the stream, the sample check, and the reads.
type rep struct {
	setup    time.Duration
	ingest   time.Duration
	msgs     int     // offers received plus replies sent
	heap     float64 // live heap bytes at the end of ingest, above the input's
	offerNs  int64
	calls    calls
	queries  []float64 // latency from due time, ms
	late     []float64 // generator lateness, ms
	checkErr error     // sample divergence; nil when the checked read matched
}

func (r *rep) ingestEPS(n int) float64 { return float64(n) / r.ingest.Seconds() }

// runRep runs one repetition on the public-API stack, or on the traced stack
// when traced is set.
func (b *bench) runRep(ctx context.Context, traced bool) (*rep, error) {
	r := &rep{}
	start := time.Now()
	var (
		dep *deployment
		err error
	)
	if traced {
		dep, err = b.startTraced(ctx)
	} else {
		dep, err = b.startDDS(ctx)
	}
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	r.setup = time.Since(start)
	defer func() {
		if dep != nil {
			_ = dep.close()
		}
	}()
	var tr *tracer
	if traced {
		tr = b.tr
	}
	before := dds.Metrics()
	d := &feeder{b: b, c: dep.client, tr: tr}

	// The open-loop workload reads while ingest runs; the query goroutine
	// stops when ingest ends.
	var (
		wg    sync.WaitGroup
		stop  = make(chan struct{})
		qs    = &queryLoad{}
		query = dep.query
	)
	if b.w.paced() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qs.openLoop(ctx, query, newSchedule(time.Now(), queryPeriod), stop)
		}()
	}
	r.ingest, err = d.run()
	close(stop)
	wg.Wait()
	r.calls = d.calls
	r.offerNs = d.offerNs
	if err != nil {
		return r, err
	}
	after := dds.Metrics()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.heap = float64(mem.HeapAlloc) - b.inputHeap
	offers, replies := dep.stats()
	r.msgs = offers + replies
	if traced {
		b.layers.addRep(b.in.len(), metricsDelta{before, after}, r)
	}

	// The first read of the settled cluster is checked against the
	// reference. Closed-loop workloads read nothing during ingest, so their
	// latencies come from settledReads back-to-back reads of the settled
	// cluster, each timed from when it is sent.
	reads := 1
	if !b.w.paced() {
		reads = settledReads
	}
	for j := 0; j < reads; j++ {
		var sent time.Time
		if !b.w.paced() {
			sent = time.Now()
		}
		got, ok := qs.read(ctx, query, b.in.lastSlot(), sent)
		if !ok {
			break
		}
		if j == 0 {
			r.checkErr = b.want.check(got)
		}
	}
	r.queries = qs.latencies
	r.late = qs.late
	if d.sched != nil {
		r.late = append(r.late, d.sched.late...)
	}
	r.calls.attempted += qs.calls.attempted
	r.calls.failed += qs.calls.failed
	if qs.err != nil {
		return r, fmt.Errorf("query: %w", qs.err)
	}
	if traced {
		if err := b.layers.captureEndStates(dep); err != nil {
			return r, err
		}
	}
	cerr := dep.close()
	dep = nil
	if cerr != nil {
		return r, fmt.Errorf("close: %w", cerr)
	}
	return r, nil
}

const (
	queryTimeout = 10 * time.Second
	queryPeriod  = time.Second / queryRate
)

// queryLoad sends reads and records each one's latency.
type queryLoad struct {
	latencies []float64
	late      []float64
	calls     calls
	err       error
}

type queryFunc func(ctx context.Context, asOf int64) ([]netsim.SampleEntry, error)

// openLoop sends query j at its due time, timing it from then, until stop
// closes.
func (q *queryLoad) openLoop(ctx context.Context, query queryFunc, sched *schedule, stop <-chan struct{}) {
	defer func() { q.late = append(q.late, sched.late...) }()
	for j := 0; ; j++ {
		if wait := time.Until(sched.due(j)); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				return
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		if _, ok := q.read(ctx, query, 0, sched.begin(j, time.Now())); !ok {
			return
		}
	}
}

// read sends one query and, unless from is zero, records its latency from
// from.
func (q *queryLoad) read(ctx context.Context, query queryFunc, asOf int64, from time.Time) ([]netsim.SampleEntry, bool) {
	qctx, cancel := context.WithTimeout(ctx, queryTimeout)
	got, err := query(qctx, asOf)
	cancel()
	if !from.IsZero() {
		q.latencies = append(q.latencies, ms(time.Since(from)))
	}
	if q.calls.do(err) != nil {
		if q.err == nil {
			q.err = err
		}
		return nil, false
	}
	return got, true
}
