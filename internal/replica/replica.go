// Package replica turns each cluster shard into a replica group: one primary
// coordinator plus R warm replicas, kept up to date by state-frame pushes and
// promoted by epoch on failover.
//
// Replication here is almost free compared to a classic replicated log,
// because of the same property that makes sharding exact: the coordinator's
// entire state is a bottom-s sketch — a few dozen (key, hash) pairs. There
// is no log to ship and no divergence to reconcile; the primary periodically
// pushes one state-frame carrying its full state (one encoded core.State,
// plus slot metadata) over the ordinary internal/wire transport, and a
// replica that applies it is byte-identical to the primary at capture time.
// A replica joining cold catches up in exactly one frame.
//
// Roles are decided by epoch-numbered promotion. Every member starts at
// epoch 0 with member 0 as primary; promoting member j means sending it a
// promote frame with epoch j. Epochs ratchet monotonically (wire fences
// state-frames stamped with a lower epoch, so a deposed primary can never
// overwrite a promoted replica), promotion is idempotent, and the
// member-index-as-epoch convention makes it deterministic: every client that
// observes the same primary failure walks the same member order and promotes
// the same next member, with no coordination. The trade-off is bounded
// staleness: offers the dead primary acknowledged after its last state push
// are lost unless the sites replay them (see cluster.SiteClient, which
// replays its unacked window on failover) — the window is at most one
// SyncInterval of acknowledged-but-unsynced offers.
package replica

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Options configures a replica-group cluster server.
type Options struct {
	// Replicas is R, the number of warm replicas per shard (0 disables
	// replication; each shard is a bare primary).
	Replicas int
	// SyncInterval is how often each group's primary state is pushed to its
	// replicas while ingest is active (syncs are skipped while the primary is
	// idle). Defaults to DefaultSyncInterval.
	SyncInterval time.Duration
	// Codec is the wire codec of replication connections (state-frame
	// pushes, epoch probes, and lease renewals). wire.CodecBinary, the zero
	// value, is the only one; the field stays while the benchmark module
	// sets it.
	Codec wire.Codec
	// RouteHash is the cluster's routing-hash function (ShardRouter.RouteHash
	// of the shared hasher). When set it is installed on every member server,
	// enabling the resharding frames — route-update pruning and state-handoff
	// absorption both filter sample entries by routing hash. Required for
	// online resharding (cluster.Resharder); optional otherwise.
	RouteHash func(key string) uint64
	// Lease > 0 arms lease-based fencing: each sync round whose pushes (or,
	// on idle rounds, epoch probes) reach a quorum of the group's live
	// members grants the primary a lease of this duration; a primary whose
	// lease runs out — partitioned from its quorum — NACKs offers with
	// wire.ErrLeaseLapsed instead of acknowledging writes a promoted member
	// will never see. The lease must comfortably exceed SyncInterval (a
	// healthy primary renews every round); Listen rejects anything shorter.
	// 0 disables leasing: primaries serve unconditionally and partition
	// fencing happens only at the next state push (the pre-lease behaviour).
	Lease time.Duration
	// SyncWrap, when set, wraps every replication connection's transport —
	// the seam the faultnet fault injector uses to subject the sync plane
	// (state pushes, epoch probes, lease renewals) to seeded drops, delays,
	// and partitions in chaos tests. nil means plain connections.
	SyncWrap func(wire.FrameConn) wire.FrameConn
	// Spool, when set, arms durability: every group's primary state is
	// written to this snapshot spool on SpoolInterval ticks (change-detected
	// exactly like sync rounds, so an idle primary costs no disk traffic)
	// and at the natural barriers — promotion, a forced SpoolNow (reshard
	// cutovers, quiesce points), and graceful Close. Halt skips the final
	// spool, simulating power loss.
	Spool *durable.Spool
	// SpoolInterval is how often each group's spool loop checks for changed
	// primary state. It bounds the post-crash replay window exactly as
	// SyncInterval bounds replica staleness. Defaults to
	// DefaultSpoolInterval; only meaningful with Spool set.
	SpoolInterval time.Duration
}

// DefaultSyncInterval bounds replica staleness to well under a second while
// keeping sync traffic negligible (one tiny frame per shard per interval).
const DefaultSyncInterval = 100 * time.Millisecond

// DefaultSpoolInterval bounds the durability replay window to one second:
// offers acknowledged after the last spooled snapshot are the only thing a
// full-cluster power loss can cost, and sites replay them on restart.
const DefaultSpoolInterval = time.Second

// member is one coordinator process of a replica group.
type member struct {
	srv  *wire.CoordinatorServer
	addr string

	mu     sync.Mutex
	killed bool
	sync   *wire.SyncClient // syncer's cached connection to this member
}

func (m *member) isKilled() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.killed
}

// group is one shard's replica group plus its sync bookkeeping.
type group struct {
	shard   int
	members []*member

	mu         sync.Mutex // serializes sync rounds (ticker vs SyncNow) and retirement
	retired    bool       // RetireGroup ran: the slot's range was merged away
	seq        uint64     // monotone state-frame sequence number
	lastOffers int        // primary activity count at the last push (change detection)
	lastEpoch  uint64     // primary epoch at the last push
	pushed     bool       // at least one push happened
	lastPushNs int64      // wall time of the last successful push (sync-lag gauge)
	obsLag     *obs.Gauge // per-slot staleness: nanoseconds between consecutive pushes

	// Spool bookkeeping, under its own lock so disk writes never contend
	// with sync rounds: change detection mirrors syncRound's (offers +
	// mutations activity count, epoch), and the promote hook's forced spool
	// serializes against the ticker's through spoolMu.
	spoolMu       sync.Mutex
	spooledOffers int
	spooledEpoch  uint64
	spooledOnce   bool
}

func (g *group) isRetired() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.retired
}

// memberList returns the group's member slice under the group lock. The
// slice is assigned exactly once (when AddGroup finishes building the group)
// and its contents are immutable afterwards, so callers may iterate the
// returned slice without the lock; the accessor only orders the read against
// that one assignment.
func (g *group) memberList() []*member {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.members
}

// currentPrimary is primary() for callers not holding g.mu.
func (g *group) currentPrimary() (int, *member) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.primary()
}

// Server runs shards × (1 + R) coordinator servers in one process and keeps
// every group's replicas warm. Shard c's members listen on consecutive
// ports: with listen address host:port, member m of shard c binds
// host:(port + c*(R+1) + m); port 0 gives every member an ephemeral port.
//
// Groups may be added (AddGroup, for shard splits) and retired (RetireGroup,
// for shard merges) while the server runs; slot indices are stable — a
// retired slot keeps its index and is never reused, so range tables and
// slot-indexed client state stay consistent across reshards.
type Server struct {
	opts     Options
	host     string
	basePort int
	newCoord func(shard, member int) netsim.CoordinatorNode

	mu     sync.RWMutex // guards the groups slice (AddGroup appends while readers iterate)
	groups []*group

	// routeVersion is the routing-table version stamped into spooled
	// snapshot headers (NoteRouteVersion; the reshard driver advances it at
	// every cutover). Purely informational when no spool is armed.
	routeVersion atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// snapshotGroups returns the current groups slice under the read lock; the
// *group pointers themselves are safe to use without it.
func (s *Server) snapshotGroups() []*group {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.groups[:len(s.groups):len(s.groups)]
}

// Listen starts every group member and the per-group sync loops. newCoord
// builds the protocol coordinator for (shard, member); instances must be
// independent, and for replicas to apply syncs the node must implement
// core.Snapshotter (the unified Snapshot/Restore API — every sampler kind,
// sliding-window included, replicates through state frames).
func Listen(addr string, shards int, opts Options, newCoord func(shard, member int) netsim.CoordinatorNode) (*Server, error) {
	if shards < 1 {
		return nil, fmt.Errorf("replica: need at least one shard")
	}
	if opts.Replicas < 0 {
		opts.Replicas = 0
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	if opts.SpoolInterval <= 0 {
		opts.SpoolInterval = DefaultSpoolInterval
	}
	if opts.Lease > 0 && opts.Lease <= opts.SyncInterval {
		return nil, fmt.Errorf("replica: lease %v must exceed the sync interval %v (a healthy primary renews once per round)", opts.Lease, opts.SyncInterval)
	}
	if opts.Lease > 0 && opts.Replicas == 0 {
		return nil, fmt.Errorf("replica: lease fencing needs replicas (the lease is renewed by quorum acks)")
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("replica: bad listen address %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("replica: bad listen port %q: %w", portStr, err)
	}
	s := &Server{opts: opts, host: host, basePort: port, newCoord: newCoord, stop: make(chan struct{})}
	for c := 0; c < shards; c++ {
		if _, _, err := s.AddGroup(); err != nil {
			_ = s.Close()
			return nil, err
		}
	}
	return s, nil
}

// AddGroup starts one additional replica group (1 primary + R replicas) at
// the next slot index and returns the slot and its member addresses in
// promotion order. Shard splits use it to bring up the new range's owner
// while the cluster serves; Listen uses it to start the initial groups.
func (s *Server) AddGroup() (slot int, addrs []string, err error) {
	s.mu.Lock()
	slot = len(s.groups)
	// Register the group before binding its members so slot numbering stays
	// dense even across failed additions — but register it marked retired
	// ("under construction"): concurrent readers (GroupAddrs, Stats,
	// PrimarySamples, a racing Close) skip it until the member list is
	// complete and published in one locked assignment below.
	g := &group{shard: slot, retired: true}
	s.groups = append(s.groups, g)
	s.mu.Unlock()
	groupSize := s.opts.Replicas + 1
	offers, churn, lag := shardObs(slot)
	var members []*member
	for m := 0; m < groupSize; m++ {
		node := s.newCoord(slot, m)
		if _, ok := node.(core.Snapshotter); !ok && s.opts.Replicas > 0 {
			closeMembers(members)
			return 0, nil, fmt.Errorf("replica: shard %d member %d: %w", slot, m, wire.ErrNotSnapshottable)
		}
		srv := wire.NewCoordinatorServer(node)
		srv.SetShardObs(offers, churn)
		if s.opts.RouteHash != nil {
			srv.SetRouteHash(s.opts.RouteHash)
		}
		if s.opts.Spool != nil {
			// Promotion is a durability barrier: the instant a member becomes
			// its group's primary, its state (one sync behind the dead
			// primary at worst) is spooled, not left to the next tick.
			srv.SetPromoteHook(func(uint64) { _ = s.spoolGroup(g, true) })
		}
		memberPort := 0
		if s.basePort != 0 {
			memberPort = s.basePort + slot*groupSize + m
		}
		bound, err := srv.Listen(net.JoinHostPort(s.host, strconv.Itoa(memberPort)))
		if err != nil {
			closeMembers(members)
			return 0, nil, fmt.Errorf("replica: shard %d member %d: %w", slot, m, err)
		}
		members = append(members, &member{srv: srv, addr: bound})
	}
	g.mu.Lock()
	g.members = members
	g.retired = false
	g.obsLag = lag
	g.mu.Unlock()
	if s.opts.Replicas > 0 {
		s.wg.Add(1)
		go s.syncLoop(g)
	}
	if s.opts.Spool != nil {
		s.wg.Add(1)
		go s.spoolLoop(g)
	}
	addrs = make([]string, len(members))
	for m, mem := range members {
		addrs[m] = mem.addr
	}
	return slot, addrs, nil
}

// closeMembers kills and closes a set of members (failed-construction and
// retirement teardown).
func closeMembers(members []*member) error {
	var firstErr error
	for _, m := range members {
		m.mu.Lock()
		if m.sync != nil {
			m.sync.Close()
			m.sync = nil
		}
		killed := m.killed
		m.killed = true
		m.mu.Unlock()
		if killed {
			continue
		}
		if err := m.srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// RetireGroup permanently shuts one group down: a shard merge has handed its
// range (and its sample) to a neighbour, so its members stop serving and its
// sync loop exits. The slot index stays allocated and is never reused.
func (s *Server) RetireGroup(slot int) error {
	g := s.group(slot)
	if g == nil {
		return fmt.Errorf("replica: no shard %d", slot)
	}
	g.mu.Lock()
	if g.retired {
		g.mu.Unlock()
		return nil
	}
	g.retired = true
	members := g.members
	g.mu.Unlock()
	return closeMembers(members)
}

// syncLoop pushes the group's primary state to its replicas every
// SyncInterval while ingest is active.
func (s *Server) syncLoop(g *group) {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			if g.isRetired() {
				return
			}
			_ = g.syncRound(s.opts, false)
		}
	}
}

// spoolLoop persists the group's primary state to the snapshot spool every
// SpoolInterval while it changes — the background half of durability (the
// barriers are promotion, SpoolNow, and graceful Close).
func (s *Server) spoolLoop(g *group) {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.SpoolInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			if g.isRetired() {
				return
			}
			_ = s.spoolGroup(g, false)
		}
	}
}

// spoolGroup captures the group's primary state and writes it to the spool.
// Unless force is set, the write is skipped while the primary is idle (same
// change detection as syncRound: activity count and epoch), and a skipped
// round captures nothing. Nodes predating the Snapshot/Restore API cannot be
// persisted and are skipped silently.
func (s *Server) spoolGroup(g *group, force bool) error {
	if s.opts.Spool == nil || g.isRetired() {
		return nil
	}
	_, p := g.currentPrimary()
	if p == nil {
		return fmt.Errorf("replica: shard %d: no live members to spool", g.shard)
	}
	epoch := p.srv.Epoch()
	g.spoolMu.Lock()
	defer g.spoolMu.Unlock()
	if !force && g.spooledOnce && p.srv.Activity() == g.spooledOffers && epoch == g.spooledEpoch {
		return nil
	}
	st, ok, _, offers := p.srv.SnapshotSync()
	if !ok {
		return nil
	}
	if _, err := s.opts.Spool.WriteSnapshot(g.shard, epoch, s.routeVersion.Load(), st); err != nil {
		obs.Logger().Warn("snapshot spool failed", "shard", g.shard, "err", err.Error())
		return fmt.Errorf("replica: shard %d: %w", g.shard, err)
	}
	g.spooledOffers, g.spooledEpoch, g.spooledOnce = offers, epoch, true
	return nil
}

// SpoolNow force-spools every live group's primary state — the durability
// quiesce barrier. After site flushes have drained and SpoolNow returns,
// every acknowledged offer is on disk: reshard drivers call it at cutover,
// graceful shutdown calls it last, and tests use it to close the bounded
// replay window. A no-op (nil) when no spool is armed.
func (s *Server) SpoolNow() error {
	if s.opts.Spool == nil {
		return nil
	}
	var firstErr error
	for _, g := range s.snapshotGroups() {
		if g.isRetired() {
			continue
		}
		if err := s.spoolGroup(g, true); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// NoteRouteVersion records the live routing-table version stamped into every
// subsequently spooled snapshot header. The serving layer sets it at boot
// and the reshard driver advances it at each cutover.
func (s *Server) NoteRouteVersion(v uint64) { s.routeVersion.Store(v) }

// primary returns the group's current primary: the live member with the
// highest epoch, preferring promoted members on ties (state pushes propagate
// the primary's epoch to its replicas, so epoch alone does not identify the
// promoted member) and the lowest index after that. nil if every member has
// been killed.
func (g *group) primary() (int, *member) {
	bestIdx, best := -1, (*member)(nil)
	var bestEpoch uint64
	bestPromoted := false
	for i, m := range g.members {
		if m.isKilled() {
			continue
		}
		epoch, promoted := m.srv.Epoch(), m.srv.Promoted()
		better := best == nil ||
			epoch > bestEpoch ||
			(epoch == bestEpoch && promoted && !bestPromoted)
		if better {
			bestIdx, best, bestEpoch, bestPromoted = i, m, epoch, promoted
		}
	}
	return bestIdx, best
}

// syncRound captures the primary's state and pushes one state-frame to
// every live replica. Unless force is set, the push is skipped while the
// primary is idle (no new offers and no epoch change since the last push),
// and a skipped round captures and encodes nothing.
// Errors pushing to individual replicas are returned joined but do not stop
// the round — a dead replica must not block the others.
//
// When leasing is armed (Options.Lease > 0), every round doubles as the
// primary's lease heartbeat: the pushes are the quorum votes on an active
// round, cheap epoch probes stand in for them on an idle (skipped) round,
// and a majority of the group's live members acking grants the primary
// Options.Lease more of accepting offers. A partitioned primary misses its
// quorum, its lease runs down, and it starts NACKing with ErrLeaseLapsed —
// within one lease of losing its group, not at its next fenced sync.
func (g *group) syncRound(opts Options, force bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.retired {
		return nil
	}
	_, p := g.primary()
	if p == nil {
		return fmt.Errorf("replica: shard %d: no live members", g.shard)
	}
	epoch := p.srv.Epoch()
	// The round's trace context: adopt the last sampled ingest batch the
	// primary acknowledged — linking site → shard → replica in one timeline —
	// or make a fresh sampling decision for rounds with no traced ingest.
	tc := p.srv.TakeTrace()
	if !tc.Sampled() {
		tc = obs.StartTrace()
	}
	if !force && g.pushed && p.srv.Activity() == g.lastOffers && epoch == g.lastEpoch {
		obsSyncSkipped.Inc()
		if opts.Lease > 0 {
			g.renewOnQuorum(opts, p, epoch, g.probeQuorum(opts, p), tc)
		}
		return nil
	}
	// One encoded core.State replicates any snapshot-capable sampler (the
	// sliding-window coordinator's candidate store included). A node without
	// Snapshot/Restore only ever serves an unreplicated group (AddGroup
	// refuses it otherwise), so there is nothing to push.
	st, ok, slot, offers := p.srv.SnapshotSync()
	if !ok {
		return nil
	}
	encoded := core.EncodeState(st)
	start := nowNanos()
	obsSyncRounds.Inc()
	obsSyncBytes.Add(uint64(len(encoded)))
	g.seq++
	// Push to every replica concurrently: each member's sync connection is
	// guarded by its own mutex, and a replica that is down without having
	// been Kill()ed (external deployment, partition) must burn its dial
	// timeout in parallel with — not ahead of — the healthy replicas' pushes.
	errs := make([]error, len(g.members))
	attempts := 0
	var wg sync.WaitGroup
	for i, m := range g.members {
		if m == p || m.isKilled() {
			continue
		}
		attempts++
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			if err := g.push(m, opts, tc.Child(), epoch, slot, encoded); err != nil {
				errs[i] = fmt.Errorf("replica: shard %d sync to %s: %w", g.shard, m.addr, err)
			}
		}(i, m)
	}
	wg.Wait()
	if tc.Sampled() {
		obs.StageSpan(tc, obs.StageSyncRound, start, nowNanos())
	}
	if opts.Lease > 0 {
		successes := 0
		for i, m := range g.members {
			if m == p || m.isKilled() {
				continue
			}
			if errs[i] == nil {
				successes++
			}
		}
		g.renewOnQuorum(opts, p, epoch, hasQuorum(successes, attempts), tc)
	}
	for _, err := range errs {
		if err != nil {
			// Leave the change-detection state alone: a replica that missed
			// this round must be retried by the next ticker round even if the
			// primary goes idle, or its staleness would be unbounded instead
			// of one sync interval. Re-pushing to the healthy replicas in the
			// meantime is harmless — application is idempotent and the frame
			// is tiny.
			return err
		}
	}
	g.lastOffers, g.lastEpoch, g.pushed = offers, epoch, true
	obsSyncRoundNs.Observe(nowNanos() - start)
	if g.lastPushNs != 0 && g.obsLag != nil {
		g.obsLag.Set(start - g.lastPushNs)
	}
	g.lastPushNs = start
	return nil
}

// hasQuorum reports whether the primary plus its acked replicas form a
// strict majority of the group's live members (the primary votes for
// itself; killed members are administratively removed, not suspected).
func hasQuorum(successes, attempts int) bool {
	return (successes+1)*2 > attempts+1
}

// probeQuorum epoch-probes every live replica concurrently (Promote(0)
// changes nothing and answers with the member's epoch) and reports whether a
// quorum answered — the idle-round stand-in for the sync pushes' votes.
func (g *group) probeQuorum(opts Options, p *member) bool {
	successes, attempts := 0, 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, m := range g.members {
		if m == p || m.isKilled() {
			continue
		}
		attempts++
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			if g.probe(m, opts) == nil {
				mu.Lock()
				successes++
				mu.Unlock()
			}
		}(m)
	}
	wg.Wait()
	return hasQuorum(successes, attempts)
}

// renewOnQuorum extends the primary's lease by Options.Lease when the round
// reached its quorum, and lets it run down (counting the miss) otherwise.
func (g *group) renewOnQuorum(opts Options, p *member, epoch uint64, quorum bool, tc obs.TraceContext) {
	if !quorum {
		obsLeaseNoQuorum.Inc()
		obs.Logger().Warn("lease renewal missed: no quorum", "shard", g.shard, "epoch", epoch)
		return
	}
	if err := g.renewLease(p, opts, epoch, tc); err != nil {
		obsLeaseNoQuorum.Inc()
		obs.Logger().Warn("lease renewal failed", "shard", g.shard, "epoch", epoch, "err", err.Error())
		return
	}
	obsLeaseRenewals.Inc()
}

// renewLease delivers one lease-renew frame to the primary over its cached
// sync connection (the same redial-once discipline as push).
func (g *group) renewLease(m *member, opts Options, epoch uint64, tc obs.TraceContext) error {
	if tc.Sampled() {
		start := nowNanos()
		defer func() { obs.StageSpan(tc, obs.StageLeaseRenew, start, nowNanos()) }()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if err := g.ensureSyncLocked(m, opts); err != nil {
			return err
		}
		ackEpoch, err := m.sync.RenewLeaseTraced(tc.Child(), epoch, opts.Lease)
		if err != nil {
			m.sync.Close()
			m.sync = nil
			if attempt == 0 {
				continue // stale connection; one redial
			}
			return err
		}
		if ackEpoch != epoch {
			return fmt.Errorf("replica: primary %s is at epoch %d, renewal was stamped %d: %w", m.addr, ackEpoch, epoch, wire.ErrDeposed)
		}
		return nil
	}
}

// probe health-checks one member over its cached sync connection.
func (g *group) probe(m *member, opts Options) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if err := g.ensureSyncLocked(m, opts); err != nil {
			return err
		}
		if _, err := m.sync.Promote(0); err != nil {
			m.sync.Close()
			m.sync = nil
			if attempt == 0 {
				continue // stale connection; one redial
			}
			return err
		}
		return nil
	}
}

// ensureSyncLocked dials the member's cached sync connection if needed,
// threading Options.SyncWrap so fault injection covers redials too. Callers
// hold m.mu.
func (g *group) ensureSyncLocked(m *member, opts Options) error {
	if m.sync != nil {
		return nil
	}
	sc, err := wire.DialSyncWrap(m.addr, opts.Codec, opts.SyncWrap)
	if err != nil {
		return err
	}
	m.sync = sc
	return nil
}

// push ships one state-frame carrying the encoded primary state to a member
// over its cached sync connection, dialing (or redialing once, if the cached
// connection has gone stale) as needed.
func (g *group) push(m *member, opts Options, tc obs.TraceContext, epoch uint64, slot int64, encoded []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if err := g.ensureSyncLocked(m, opts); err != nil {
			return err
		}
		ackEpoch, err := m.sync.SyncFrameTraced(tc, epoch, g.seq, slot, encoded)
		if err != nil {
			m.sync.Close()
			m.sync = nil
			if attempt == 0 {
				continue // stale connection; one redial
			}
			return err
		}
		if ackEpoch > epoch {
			obsDeposedFences.Inc()
			obs.Logger().Warn("deposed primary fenced",
				"shard", g.shard, "replica", m.addr, "epoch", epoch, "ack_epoch", ackEpoch)
			return fmt.Errorf("replica: replica %s is at epoch %d, sync was stamped %d: %w", m.addr, ackEpoch, epoch, wire.ErrDeposed)
		}
		return nil
	}
}

// ErrSyncUnhealthy reports that a forced sync round could not complete
// cleanly within SyncNow's internal retry budget: every attempt on some
// group lost its frame to the link. The wrapped chain carries the last
// transport error; detect the exhaustion itself with errors.Is.
var ErrSyncUnhealthy = errors.New("replica: forced sync round did not complete")

// syncNowAttempts bounds SyncNow's per-group retries. The sync plane may be
// lossy by construction (fault-injected tests, flaky links): a forced round
// can lose its state frame even after push's one redial, and the background
// ticker would simply heal on the next tick — so a quiesce-grade round
// retries transient losses itself instead of making every caller loop.
const syncNowAttempts = 20

// SyncNow forces one immediate sync round on every live group, returning the
// first error. Callers use it to quiesce replication: after SiteClient
// flushes have drained and SyncNow returns, every live replica holds the
// primary's exact current state.
//
// Transient frame losses are retried internally (up to syncNowAttempts per
// group); exhaustion surfaces as an error wrapping ErrSyncUnhealthy plus the
// last transport error. A deposed-primary fence (wire.ErrDeposed) is
// permanent for this epoch and returns immediately — retrying cannot heal
// it, promotion can.
func (s *Server) SyncNow() error {
	var firstErr error
	for _, g := range s.snapshotGroups() {
		var lastErr error
		for attempt := 0; attempt < syncNowAttempts; attempt++ {
			if lastErr = g.syncRound(s.opts, true); lastErr == nil {
				break
			}
			if errors.Is(lastErr, wire.ErrDeposed) {
				break
			}
		}
		if lastErr != nil && firstErr == nil {
			if errors.Is(lastErr, wire.ErrDeposed) {
				firstErr = lastErr
			} else {
				firstErr = fmt.Errorf("replica: shard %d: %w: %w", g.shard, ErrSyncUnhealthy, lastErr)
			}
		}
	}
	return firstErr
}

// Shards returns the number of shard slots ever allocated, including retired
// ones (slot indices are stable; use GroupAddrs to tell live from retired).
func (s *Server) Shards() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.groups)
}

// GroupSize returns 1 + R, the number of members per group.
func (s *Server) GroupSize() int { return s.opts.Replicas + 1 }

// GroupAddrs returns, per shard slot, the member addresses in promotion
// order (member 0 first); retired slots are nil. This is the address set
// sites and query clients take.
func (s *Server) GroupAddrs() [][]string {
	groups := s.snapshotGroups()
	out := make([][]string, len(groups))
	for c, g := range groups {
		g.mu.Lock()
		retired, members := g.retired, g.members
		g.mu.Unlock()
		if retired {
			continue
		}
		addrs := make([]string, len(members))
		for m, mem := range members {
			addrs[m] = mem.addr
		}
		out[c] = addrs
	}
	return out
}

// group returns the group at slot, or nil if the slot is out of range.
func (s *Server) group(slot int) *group {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if slot < 0 || slot >= len(s.groups) {
		return nil
	}
	return s.groups[slot]
}

// PrimaryIndex returns the member index of the shard's current primary, or
// -1 if every member is dead (or the slot retired).
func (s *Server) PrimaryIndex(shard int) int {
	g := s.group(shard)
	if g == nil || g.isRetired() {
		return -1
	}
	idx, _ := g.currentPrimary()
	return idx
}

// PrimaryAddr returns the address of the shard's current primary member
// ("" if the slot is retired or fully dead) — the endpoint reshard drivers
// snapshot from and hand ranges to.
func (s *Server) PrimaryAddr(shard int) string {
	g := s.group(shard)
	if g == nil || g.isRetired() {
		return ""
	}
	_, p := g.currentPrimary()
	if p == nil {
		return ""
	}
	return p.addr
}

// PushRoute broadcasts one route-push frame to every site connected to any
// live member and returns the number of connections it reached — the
// coordinator→site push channel a reshard driver uses to flip external
// sites' route tables live instead of waiting for their next NACK.
func (s *Server) PushRoute(f *wire.Frame) int {
	n := 0
	for _, g := range s.snapshotGroups() {
		if g.isRetired() {
			continue
		}
		for _, m := range g.memberList() {
			if m.isKilled() {
				continue
			}
			n += m.srv.PushRoute(f)
		}
	}
	return n
}

// RestrictRoute arms strict routing on every member of the slot: offers for
// keys outside the member's stored route range are NACKed with
// wire.ErrStaleRoute from here on. Reshard drivers call it once a split's
// registered sites have all flipped, so a stale external site's strays are
// bounced back for rerouting instead of landing on a shard that no longer
// owns them (and being silently pruned by the next reshard).
func (s *Server) RestrictRoute(slot int) {
	g := s.group(slot)
	if g == nil {
		return
	}
	for _, m := range g.memberList() {
		m.srv.RestrictRoute()
	}
}

// Epochs returns the current epoch of every member of the shard.
func (s *Server) Epochs(shard int) []uint64 {
	g := s.group(shard)
	if g == nil {
		return nil
	}
	members := g.memberList()
	out := make([]uint64, len(members))
	for i, m := range members {
		out[i] = m.srv.Epoch()
	}
	return out
}

// PrimarySamples returns the current primary's sample for every live shard
// slot, indexed by slot (retired slots contribute nil) — the inputs to
// cluster.Merge.
func (s *Server) PrimarySamples() ([][]netsim.SampleEntry, error) {
	groups := s.snapshotGroups()
	out := make([][]netsim.SampleEntry, len(groups))
	for c, g := range groups {
		if g.isRetired() {
			continue
		}
		_, p := g.currentPrimary()
		if p == nil {
			return nil, fmt.Errorf("replica: shard %d: no live members", c)
		}
		out[c] = p.srv.Sample()
	}
	return out, nil
}

// MemberSample returns one member's current sample (for staleness checks).
func (s *Server) MemberSample(shard, member int) []netsim.SampleEntry {
	return s.group(shard).memberList()[member].srv.Sample()
}

// Stats returns cluster-wide totals of offers received, reply messages sent,
// and queries answered, summed over every member ever started (a replayed
// offer counts at both the dead primary and its successor; retired members'
// history stays counted).
func (s *Server) Stats() (offers, replies, queries int) {
	for _, g := range s.snapshotGroups() {
		for _, m := range g.memberList() {
			o, r, q := m.srv.Stats()
			offers += o
			replies += r
			queries += q
		}
	}
	return offers, replies, queries
}

// Kill simulates the crash of one member: its listener and every live
// connection are force-closed (clients see read/write errors immediately)
// and the syncer stops pushing to it. Killing is permanent for the lifetime
// of the server.
func (s *Server) Kill(shard, memberIdx int) error {
	g := s.group(shard)
	if g == nil {
		return fmt.Errorf("replica: no shard %d", shard)
	}
	members := g.memberList()
	if memberIdx < 0 || memberIdx >= len(members) {
		return fmt.Errorf("replica: shard %d has no member %d", shard, memberIdx)
	}
	m := members[memberIdx]
	m.mu.Lock()
	if m.killed {
		m.mu.Unlock()
		return nil
	}
	m.killed = true
	if m.sync != nil {
		m.sync.Close()
		m.sync = nil
	}
	m.mu.Unlock()
	return m.srv.Close()
}

// KillPrimary kills the shard's current primary and returns its member
// index (-1 if the group was already fully dead).
func (s *Server) KillPrimary(shard int) (int, error) {
	idx := s.PrimaryIndex(shard)
	if idx < 0 {
		return -1, fmt.Errorf("replica: shard %d: no live members", shard)
	}
	return idx, s.Kill(shard, idx)
}

// Close stops the sync loops and every member server. When a spool is
// armed, every live group's state is spooled first — graceful shutdown is a
// durability barrier, so a clean Close loses nothing at all.
func (s *Server) Close() error { return s.shutdown(true) }

// Halt is Close without the final spool: every loop stops and every member
// dies with whatever the spool already holds — the in-process simulation of
// a full-cluster power loss. Restoring from the spool afterwards recovers
// exactly the state as of the last spooled snapshot per slot; everything
// acknowledged after it is the bounded replay window.
func (s *Server) Halt() error { return s.shutdown(false) }

func (s *Server) shutdown(spoolFinal bool) error {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.wg.Wait()
	var firstErr error
	if spoolFinal {
		firstErr = s.SpoolNow()
	}
	for _, g := range s.snapshotGroups() {
		if err := closeMembers(g.memberList()); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
