package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/wire"
)

// The traced stack is assembled from the constructors dds itself calls
// (cluster.NewShardRouter, replica.Listen, cluster.DialGroups), with thin
// wrappers at the public seams: the hasher handed to the router and the
// sites, the site and coordinator nodes the factories return, and the
// query's own steps (wire.ProbeEpoch, wire.QueryWith, cluster.Merge).
// Stages invisible from outside come from the program's trace-stage
// histograms with the trace sample rate at 1.

// tracedHasher counts every call and times the probed ones.
type tracedHasher struct {
	inner hashing.UnitHasher
	tr    *tracer
	calls atomic.Int64
}

func (h *tracedHasher) Hash(key string) uint64 {
	h.calls.Add(1)
	if !h.tr.probing(kHash) {
		return h.inner.Hash(key)
	}
	start := h.tr.now()
	v := h.inner.Hash(key)
	h.tr.seam(kHash, start)
	return v
}

func (h *tracedHasher) Unit(key string) float64 {
	h.calls.Add(1)
	if !h.tr.probing(kUnit) {
		return h.inner.Unit(key)
	}
	start := h.tr.now()
	v := h.inner.Unit(key)
	h.tr.seam(kUnit, start)
	return v
}

func (h *tracedHasher) Seed() uint64 { return h.inner.Seed() }

// siteStats are one site wrapper's counters. OnArrival runs on the feeder's
// goroutine, OnMessage on the pipeline reader, OnSlotEnd on fan-out
// goroutines, so the counters are atomic.
type siteStats struct {
	emitted                       atomic.Int64
	replies, replyNs              atomic.Int64
	slotEnds, slotEndNs, storeLen atomic.Int64
}

// tracedSite wraps the site node one shard of the client runs. Embedding
// forwards ID and Memory unchanged.
type tracedSite struct {
	netsim.SiteNode
	tr *tracer
	st siteStats
}

func (s *tracedSite) OnArrival(key string, slot int64, out *netsim.Outbox) {
	n0 := len(out.Envelopes())
	if s.tr.probing(kArrival) {
		start := s.tr.now()
		s.SiteNode.OnArrival(key, slot, out)
		s.tr.seam(kArrival, start)
	} else {
		s.SiteNode.OnArrival(key, slot, out)
	}
	if d := len(out.Envelopes()) - n0; d > 0 {
		s.st.emitted.Add(int64(d))
	}
}

func (s *tracedSite) OnMessage(msg netsim.Message, slot int64, out *netsim.Outbox) {
	t0 := time.Now()
	s.SiteNode.OnMessage(msg, slot, out)
	s.st.replyNs.Add(int64(time.Since(t0)))
	s.st.replies.Add(1)
}

func (s *tracedSite) OnSlotEnd(slot int64, out *netsim.Outbox) {
	t0 := time.Now()
	s.SiteNode.OnSlotEnd(slot, out)
	s.st.slotEndNs.Add(int64(time.Since(t0)))
	s.st.slotEnds.Add(1)
	s.st.storeLen.Add(int64(s.SiteNode.Memory()))
}

// Threshold forwards the wrapped site's threshold (1 when it has none).
func (s *tracedSite) Threshold() float64 {
	if th, ok := s.SiteNode.(interface{ Threshold() float64 }); ok {
		return th.Threshold()
	}
	return 1
}

// memo returns the site's duplicate-memo length (Algorithm 1's sites only).
func (s *tracedSite) memo() int {
	if _, ok := s.SiteNode.(*core.InfiniteSite); ok {
		return s.SiteNode.Memory() - 1 // Memory counts the threshold too
	}
	return 0
}

// tracedSnapSite is tracedSite for site nodes that snapshot (sliding
// windows): resharding repartitions their state through core.Snapshotter.
type tracedSnapSite struct {
	*tracedSite
	snap core.Snapshotter
}

func (s *tracedSnapSite) Snapshot() core.State        { return s.snap.Snapshot() }
func (s *tracedSnapSite) Restore(st core.State) error { return s.snap.Restore(st) }

// wrapSite wraps inner, keeping its snapshot methods when it has them.
func wrapSite(inner netsim.SiteNode, tr *tracer) (netsim.SiteNode, *tracedSite) {
	ts := &tracedSite{SiteNode: inner, tr: tr}
	if sn, ok := inner.(core.Snapshotter); ok {
		return &tracedSnapSite{tracedSite: ts, snap: sn}, ts
	}
	return ts, ts
}

// snapCoord is what every built-in coordinator implements and what
// replication, spooling and the sync frame's threshold need from a node.
type snapCoord interface {
	netsim.CoordinatorNode
	core.Snapshotter
	Threshold() float64
}

// tracedCoord wraps one shard member's coordinator. Embedding snapCoord
// forwards Sample, OnSlotEnd, Snapshot, Restore and Threshold unchanged.
type tracedCoord struct {
	snapCoord
	calls, timed, ns atomic.Int64
}

func (c *tracedCoord) OnMessage(msg netsim.Message, slot int64, out *netsim.Outbox) {
	if c.calls.Add(1)%coordSampleEvery != 0 {
		c.snapCoord.OnMessage(msg, slot, out)
		return
	}
	t0 := time.Now()
	c.snapCoord.OnMessage(msg, slot, out)
	c.ns.Add(int64(time.Since(t0)))
	c.timed.Add(1)
}

// startTraced assembles the traced stack and connects the site client.
func (b *bench) startTraced(ctx context.Context) (*deployment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w, ls := b.w, b.layers
	hasher := &tracedHasher{inner: newHasher(), tr: b.tr}
	router := cluster.NewShardRouter(shards, hasher)
	opts := replica.Options{
		Replicas:     w.replicas,
		SyncInterval: w.syncInterval,
		Codec:        wire.CodecBinary,
		RouteHash:    router.RouteHash,
	}
	var dir string
	if w.spoolInterval > 0 {
		var err error
		if dir, err = b.spoolDir(); err != nil {
			return nil, err
		}
		sp, err := durable.Open(dir, durable.DefaultRetain)
		if err != nil {
			return nil, err
		}
		opts.Spool, opts.SpoolInterval = sp, w.spoolInterval
	}
	ls.startRep(hasher)
	srv, err := replica.Listen("127.0.0.1:0", shards, opts, func(int, int) netsim.CoordinatorNode {
		return ls.addCoord(&tracedCoord{snapCoord: b.newCoord()})
	})
	if err != nil {
		return nil, err
	}
	closeServer := func() error {
		err := srv.Close()
		if dir != "" {
			_ = os.RemoveAll(dir) // throwaway spool; a leftover costs only disk
		}
		return err
	}
	groups := srv.GroupAddrs()
	sc, err := cluster.DialGroups(groups, router, func(shard int) netsim.SiteNode {
		node, ts := wrapSite(b.newSite(shard, hasher), b.tr)
		ls.addSite(ts)
		return node
	}, wire.Options{Codec: wire.CodecBinary, BatchSize: batch, Window: pipeline})
	if err != nil {
		_ = closeServer()
		return nil, err
	}
	client := observeClient{sc}
	return &deployment{
		client: client,
		query:  b.tracedQuery(groups),
		stats: func() (int, int) {
			offers, replies, _ := srv.Stats()
			return offers, replies
		},
		groups: groups,
		close: func() error {
			cerr := client.Close()
			if err := closeServer(); cerr == nil {
				cerr = err
			}
			return cerr
		},
	}, nil
}

// tracedBlock offers elements [lo, hi) as one request. Every sampleEvery-th
// element times one seam, rotating through probes.
func (d *feeder) tracedBlock(lo, hi int) error {
	in, tr := d.b.in, d.tr
	tr.newRequest()
	tr.block = tr.ids.Add(1)
	start := tr.now()
	defer func() {
		tr.add(kBlock, span{Req: tr.req, ID: tr.block, Start: start, End: tr.now()})
	}()
	for i := lo; i < hi; i++ {
		key, slot := in.key(i), in.slot(i)
		var err error
		switch {
		case i%sampleEvery != 0:
			err = d.c.Offer(key, slot)
		case probes[(i/sampleEvery)%len(probes)] == kObserve:
			t0 := tr.now()
			err = d.c.Offer(key, slot)
			tr.seam(kObserve, t0)
		default:
			tr.probe.Store(uint32(probes[(i/sampleEvery)%len(probes)]) + 1)
			err = d.c.Offer(key, slot)
			tr.probe.Store(0)
		}
		if err := d.calls.do(err); err != nil {
			return fmt.Errorf("offer %d: %w", i, err)
		}
	}
	return nil
}

// tracedQuery returns the read the traced stack uses: per shard, in
// parallel, probe the primary's epoch and fetch its sample (its window store
// for sliding windows), then merge — the healthy path of dds.Query, with a
// span at each step.
func (b *bench) tracedQuery(groups [][]string) queryFunc {
	tr := b.tr
	return func(ctx context.Context, asOf int64) ([]netsim.SampleEntry, error) {
		req, qid := tr.ids.Add(1), tr.ids.Add(1)
		qstart := tr.now()
		samples := make([][]netsim.SampleEntry, len(groups))
		errs := make([]error, len(groups))
		var wg sync.WaitGroup
		for i, members := range groups {
			wg.Add(1)
			go func(i int, members []string) {
				defer wg.Done()
				samples[i], errs[i] = b.fetchShard(req, qid, members)
			}(i, members)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mstart := tr.now()
		var merged []netsim.SampleEntry
		if b.w.window > 0 {
			merged = cluster.MergeWindow(asOf, samples...)
		} else {
			merged = cluster.Merge(b.w.sampleSize, samples...)
		}
		end := tr.now()
		tr.add(kMerge, span{Req: req, ID: tr.ids.Add(1), Parent: qid, Start: mstart, End: end})
		tr.add(kQuery, span{Req: req, ID: qid, Start: qstart, End: end})
		b.layers.noteShardSamples(samples)
		return merged, nil
	}
}

// fetchShard is one shard's probe and fetch.
func (b *bench) fetchShard(req, parent uint64, members []string) ([]netsim.SampleEntry, error) {
	tr := b.tr
	t0 := tr.now()
	epoch, err := wire.ProbeEpoch(members[0], wire.CodecBinary)
	t1 := tr.now()
	tr.add(kProbe, span{Req: req, ID: tr.ids.Add(1), Parent: parent, Start: t0, End: t1})
	if err != nil {
		return nil, err
	}
	addr := members[0]
	if int(epoch) < len(members) {
		addr = members[epoch]
	}
	var sample []netsim.SampleEntry
	if b.w.window > 0 {
		var st core.State
		if st, err = wire.SnapshotAddr(addr, wire.CodecBinary); err == nil {
			for _, sec := range st.Sections {
				sample = append(sample, sec.Entries...)
				if sec.Candidate != nil {
					sample = append(sample, *sec.Candidate)
				}
			}
		}
	} else {
		sample, err = wire.QueryWith(addr, wire.CodecBinary)
	}
	tr.add(kFetch, span{Req: req, ID: tr.ids.Add(1), Parent: parent, Start: t1, End: tr.now()})
	return sample, err
}

// layerAcc accumulates what the traced repetitions measured.
type layerAcc struct {
	mu           sync.Mutex
	hashers      []*tracedHasher
	sites        []*tracedSite
	repSites     []*tracedSite // the current repetition's
	coords       []*tracedCoord
	shardSamples [][]netsim.SampleEntry // the last read's per-shard samples
	endStates    []core.State           // the last repetition's shard states

	instr    instrAcc
	elements int
	ingest   time.Duration
	memo     []float64
}

func (ls *layerAcc) startRep(h *tracedHasher) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.hashers = append(ls.hashers, h)
	ls.repSites = nil
}

func (ls *layerAcc) addSite(s *tracedSite) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.sites = append(ls.sites, s)
	ls.repSites = append(ls.repSites, s)
}

func (ls *layerAcc) addCoord(c *tracedCoord) *tracedCoord {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.coords = append(ls.coords, c)
	return c
}

func (ls *layerAcc) noteShardSamples(s [][]netsim.SampleEntry) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.shardSamples = s
}

// addRep folds in one traced repetition's ingest.
func (ls *layerAcc) addRep(elements int, d metricsDelta, r *rep) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.instr.add(d)
	ls.elements += elements
	ls.ingest += r.ingest
	for _, s := range ls.repSites {
		ls.memo = append(ls.memo, float64(s.memo()))
	}
}

// captureEndStates keeps every shard primary's final state for the ladder.
func (ls *layerAcc) captureEndStates(dep *deployment) error {
	var states []core.State
	for slot, members := range dep.groups {
		st, err := wire.SnapshotAddr(members[0], wire.CodecBinary)
		if err != nil {
			return fmt.Errorf("snapshot shard %d: %w", slot, err)
		}
		states = append(states, st)
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.endStates = states
	return nil
}

// instrAcc sums metrics-registry deltas over the traced repetitions.
type instrAcc struct {
	counters map[string]float64
	hists    map[string][2]float64 // count, sum
}

func (a *instrAcc) add(d metricsDelta) {
	if a.counters == nil {
		a.counters = make(map[string]float64)
		a.hists = make(map[string][2]float64)
	}
	for _, c := range d.after.Counters {
		a.counters[c.Name] += d.counter(c.Name)
	}
	for _, h := range d.after.Histograms {
		count, sum := d.hist(h.Name)
		v := a.hists[h.Name]
		a.hists[h.Name] = [2]float64{v[0] + count, v[1] + sum}
	}
}

func (a *instrAcc) histMean(name string) float64 {
	v := a.hists[name]
	return ratio(v[1], v[0])
}

func (a *instrAcc) stageMean(stage string) float64 {
	return a.histMean(`dds_trace_stage_ns{stage="` + stage + `"}`)
}

// family returns the totals of every counter whose name starts with prefix
// (for example one per shard slot), ordered by name.
func (a *instrAcc) family(prefix string) []float64 {
	var names []string
	for name := range a.counters {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]float64, len(names))
	for i, name := range names {
		out[i] = a.counters[name]
	}
	return out
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

// setTracing switches the program's own trace sampling, as
// dds.WithTraceSampling does: 1 for traced repetitions, 0 otherwise.
func setTracing(on bool) {
	if on {
		obs.SetTraceSampleRate(1)
	} else {
		obs.SetTraceSampleRate(0)
	}
}
