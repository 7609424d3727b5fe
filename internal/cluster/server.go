package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Server runs C shard coordinators in one process, each an independent
// wire.CoordinatorServer with its own TCP listener. Shard c of a cluster
// listening on host:port binds host:(port+c); with port 0 every shard gets
// an ephemeral port (tests and benchmarks).
type Server struct {
	servers []*wire.CoordinatorServer
	addrs   []string
}

// Listen starts shards coordinator servers. newCoord builds the protocol
// coordinator for each shard (they must be independent instances).
func Listen(addr string, shards int, newCoord func(shard int) netsim.CoordinatorNode) (*Server, error) {
	if shards < 1 {
		return nil, ErrNoShards
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: bad listen address %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("cluster: bad listen port %q: %w", portStr, err)
	}
	s := &Server{}
	for c := 0; c < shards; c++ {
		srv := wire.NewCoordinatorServer(newCoord(c))
		srv.SetShardObs(shardObs(c))
		shardPort := 0
		if port != 0 {
			shardPort = port + c
		}
		bound, err := srv.Listen(net.JoinHostPort(host, strconv.Itoa(shardPort)))
		if err != nil {
			_ = s.Close()
			return nil, fmt.Errorf("cluster: shard %d: %w", c, err)
		}
		s.servers = append(s.servers, srv)
		s.addrs = append(s.addrs, bound)
	}
	return s, nil
}

// Shards returns the number of shard coordinators.
func (s *Server) Shards() int { return len(s.servers) }

// Addrs returns the bound address of every shard, indexed by shard.
func (s *Server) Addrs() []string { return append([]string(nil), s.addrs...) }

// Close stops every shard listener and waits for their handlers.
func (s *Server) Close() error {
	var first error
	for _, srv := range s.servers {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats returns cluster-wide totals of offers received, reply messages sent,
// and queries answered.
func (s *Server) Stats() (offers, replies, queries int) {
	for _, srv := range s.servers {
		o, r, q := srv.Stats()
		offers += o
		replies += r
		queries += q
	}
	return offers, replies, queries
}

// ShardSamples returns every shard coordinator's current sample, indexed by
// shard.
func (s *Server) ShardSamples() [][]netsim.SampleEntry {
	out := make([][]netsim.SampleEntry, len(s.servers))
	for i, srv := range s.servers {
		out[i] = srv.Sample()
	}
	return out
}

// MergedSample returns the exact global bottom-sampleSize sample across all
// shards (see Merge).
func (s *Server) MergedSample(sampleSize int) []netsim.SampleEntry {
	return Merge(sampleSize, s.ShardSamples()...)
}

// SiteClient connects one logical site to every shard of the cluster: one
// protocol site instance and one TCP connection per shard, with arrivals
// routed by the shared ShardRouter. Each shard sees a disjoint substream, so
// each per-shard site instance keeps its own threshold exactly as the
// single-coordinator protocol prescribes.
//
// When a shard is a replica group (DialGroups with more than one member
// address), the client fails over: a connection error triggers a health
// probe of the current primary, and if it is dead the client promotes the
// next member in group order with an epoch equal to that member's index —
// deterministic, so every site that observes the same failure promotes the
// same member and they all converge without coordination. The protocol site
// instance survives the reconnect (its threshold view and duplicate memo
// carry over), and every offer the dead primary never acknowledged is
// replayed to the new primary before ingest resumes. Offers are idempotent
// refreshes of a bottom-s sketch, so replay can only restore lost state,
// never corrupt it; what replay cannot restore is offers the dead primary
// acknowledged after its last state push — the bounded resync window
// documented in internal/replica.
// The client also participates in online resharding: a Resharder publishes a
// RouteUpdate (new range table + shard groups) via OfferRouteUpdate, and the
// client applies it cooperatively at its next operation boundary — it drains
// every in-flight window under the old table, dials connections for newly
// added shard slots, atomically swaps its routing table, and closes
// connections to retired slots. The version fence makes application
// idempotent and ordered: a client only ever moves to a strictly newer table.
//
// Route updates also arrive unsolicited: coordinators broadcast route-push
// frames at cutover, and the client folds them into the same mailbox, so a
// site that no Resharder knows about still follows reshards. Should a push
// be missed anyway (it is best-effort), the donor's strict-route fence NACKs
// offers for ranges it gave away, and the client heals by adopting whatever
// newer table has arrived and replaying the refused offers to their owners.
// A lease-fenced primary (alive but cut off from its replicas, see
// internal/replica) is handled by backing off and retrying until the lease
// renews, then by force-promoting the next member — Options.RetryMax and
// Options.RetryBase set that policy.
type SiteClient struct {
	hasher  hashing.UnitHasher // the router's: digests pick shards
	newSite func(shard int) netsim.SiteNode
	opts    wire.Options
	table   RangeTable
	groups  [][]string   // slot-indexed member addresses (nil = retired slot)
	shards  []*shardConn // slot-indexed; nil for slots never dialed

	// pendingRoute is the cross-goroutine mailbox of the reshard driver;
	// routeVer publishes the applied table version and closed the client's
	// retirement, so the driver can tell "will apply at its next operation"
	// from "will never apply again". Once closed is set, recovery and route
	// application dial nothing.
	pendingRoute atomic.Pointer[RouteUpdate]
	routeVer     atomic.Uint64
	closed       atomic.Bool

	mu           sync.Mutex // guards the failover/reshard counters (fanOut goroutines)
	failovers    int
	failoverTime time.Duration
	reshards     int
	reshardTime  time.Duration
}

// RouteUpdate is one published routing change: the new table plus, for every
// slot it references, the shard's member addresses in promotion order.
// Groups is slot-indexed and may carry nil entries for retired slots.
type RouteUpdate struct {
	Table  RangeTable
	Groups [][]string
}

// shardConn is one shard's connection state. Only one goroutine touches a
// given shardConn at a time (the caller, or its per-shard fanOut goroutine).
type shardConn struct {
	members []string // member addresses in promotion order
	primary int      // index of the member currently believed primary
	node    netsim.SiteNode
	digest  bool // node filters on the router's digest (see takesDigest)
	client  *wire.SiteClient
	// retiredSent/retiredReceived carry the message counters of connections
	// replaced by failover, so MessagesSent/MessagesReceived span the
	// shard's whole history rather than just the current primary's.
	retiredSent     int
	retiredReceived int
}

// DialSites connects a logical site to all shard coordinators (one address
// per shard, no replicas — failover disabled). newSite builds the per-shard
// protocol site (independent instances sharing the site id and hash
// function). opts applies to every connection.
func DialSites(addrs []string, router *ShardRouter, newSite func(shard int) netsim.SiteNode, opts wire.Options) (*SiteClient, error) {
	groups := make([][]string, len(addrs))
	for i, addr := range addrs {
		groups[i] = []string{addr}
	}
	return DialGroups(groups, router, newSite, opts)
}

// DialGroups connects a logical site to a cluster of replica groups:
// groups[slot] lists the shard slot's member addresses in promotion order
// (primary first, as returned by replica.Server.GroupAddrs). Slots the
// router's table does not route to may be nil (retired by resharding);
// every routed slot must have at least one member. The site initially dials
// each routed group's current primary, determined by probing the members'
// epochs.
func DialGroups(groups [][]string, router *ShardRouter, newSite func(shard int) netsim.SiteNode, opts wire.Options) (*SiteClient, error) {
	if len(groups) == 0 {
		return nil, ErrNoShards
	}
	table := router.Table()
	if len(groups) <= table.MaxSlot() {
		return nil, fmt.Errorf("cluster: %d shard groups for a router whose table names slot %d", len(groups), table.MaxSlot())
	}
	c := &SiteClient{
		hasher:  router.hasher,
		newSite: newSite,
		opts:    opts,
		table:   table,
		groups:  cloneGroups(groups),
		shards:  make([]*shardConn, len(groups)),
	}
	c.routeVer.Store(c.table.Version)
	// Fold coordinator-initiated route pushes into the same mailbox the
	// reshard driver uses; the version fence dedupes the two sources. The
	// callback runs on connection reader goroutines, and OfferRouteUpdate is
	// the one SiteClient method safe to call there.
	user := opts.OnRoutePush
	c.opts.OnRoutePush = func(f *wire.Frame) {
		if u := routeUpdateFromPush(f); u != nil {
			c.OfferRouteUpdate(u)
		}
		if user != nil {
			user(f)
		}
	}
	for _, slot := range table.Slots {
		members := groups[slot]
		if len(members) == 0 {
			_ = c.Close()
			return nil, fmt.Errorf("cluster: shard slot %d has no member addresses", slot)
		}
		if err := c.dialShard(slot, members); err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("cluster: dial shard %d: %w", slot, err)
		}
	}
	return c, nil
}

// dialShard connects one shard slot: it builds the slot's protocol site
// instance and dials the group's current primary, falling back to the
// failover walk when the primary is already dead (e.g. a fresh site joining
// mid-outage — there is no unacked state to replay yet).
func (c *SiteClient) dialShard(slot int, members []string) error {
	node := c.newSite(slot)
	sc := &shardConn{members: members, node: node, digest: c.takesDigest(node)}
	if len(members) > 1 {
		sc.primary = currentPrimary(members, c.opts.Codec)
	}
	c.shards[slot] = sc
	client, err := wire.DialSiteOptions(sc.node, members[sc.primary], c.opts)
	if err == nil {
		sc.client = client
		return nil
	}
	if len(members) > 1 {
		if ferr := c.failover(slot); ferr == nil {
			return nil
		}
	}
	return err
}

// takesDigest reports whether node may filter on the digest Observe already
// computed to route: it has a digest entry point and hashes with the
// router's hash function. It is decided once per node, which failover and
// reconnect carry over; every other node hashes the key itself.
func (c *SiteClient) takesDigest(node netsim.SiteNode) bool {
	dn, ok := node.(netsim.DigestSite)
	return ok && hashing.Same(dn.Hasher(), c.hasher)
}

// routeHash is the router's RouteHash, over the digest of key.
func (c *SiteClient) routeHash(key string) uint64 { return hashing.Mix64(c.hasher.Hash(key)) }

// routeUpdateFromPush decodes a route-push frame into a RouteUpdate, or nil
// when the frame does not carry a valid table (a malformed push is dropped,
// never applied — the reshard driver's registered-site offer is the reliable
// path).
func routeUpdateFromPush(f *wire.Frame) *RouteUpdate {
	t := RangeTable{
		Version: f.Seq,
		Bounds:  append([]uint64(nil), f.Bounds...),
		Slots:   make([]int, len(f.Slots)),
	}
	for i, s := range f.Slots {
		t.Slots[i] = int(s)
	}
	if err := t.Validate(); err != nil {
		return nil
	}
	return &RouteUpdate{Table: t, Groups: cloneGroups(f.Groups)}
}

// cloneGroups deep-copies a slot-indexed group list so published updates and
// client state never alias.
func cloneGroups(groups [][]string) [][]string {
	out := make([][]string, len(groups))
	for i, members := range groups {
		if members != nil {
			out[i] = append([]string(nil), members...)
		}
	}
	return out
}

// currentPrimary probes a group's members for the current epoch and maps it
// to the primary's member index (the promotion scheme numbers epochs by
// member index). Falls back to member 0 when nothing answers — the dial that
// follows will surface the real error.
func currentPrimary(members []string, codec wire.Codec) int {
	for _, addr := range members {
		epoch, err := wire.ProbeEpoch(addr, codec)
		if err != nil {
			continue
		}
		if int(epoch) < len(members) {
			return int(epoch)
		}
	}
	return 0
}

// doRetry is one attempt of op against the shard's current primary and, if
// it fails, the recovery loop (recoverOp) with the given stale-route budget.
func (c *SiteClient) doRetry(shard int, op func(*wire.SiteClient) error, staleBudget int) error {
	sc := c.shards[shard]
	if sc == nil || sc.client == nil {
		return noConnection(shard)
	}
	if err := op(sc.client); err != nil {
		return c.recoverOp(shard, op, err, staleBudget)
	}
	return nil
}

// noConnection is the error of an operation on a slot the client holds no
// connection for.
func noConnection(shard int) error {
	return fmt.Errorf("cluster: no connection for shard slot %d", shard)
}

// recoverOp is the recovery loop behind a failed attempt of op on the shard:
// it starts from that attempt's error err, recovers, and retries op as long
// as recovery makes progress. Each successful failover advances the shard's
// primary index, a healthy-primary reconnect (a connection-level reset, not
// a dead server) is attempted at most once per operation, and lease waits
// and reroutes are budgeted by the retry policy, so the loop terminates.
// wire.ErrSampleSize, a coordinator refusing the site's sample size at
// hello, is returned at once: no member would accept the site. Three
// recovery paths:
//
//   - wire.ErrStaleRoute: the shard gave the key's range away in a reshard
//     this client has not applied yet. Spend one budget unit healing —
//     adopt the pushed table and replay the refused offers to their owners
//     (healStaleRoute, which recurses through doRetry with the decremented
//     budget) — so a client that never receives a newer table surfaces the
//     typed error instead of NACK-looping forever.
//   - wire.ErrLeaseLapsed: the primary is alive but fenced, so the liveness
//     probe below cannot help; back off and retry until the lease renews,
//     then force-promote (leaseWait).
//   - anything else: the classic liveness path — probe, promote the next
//     member, or re-dial a healthy primary once.
//
// A closed client recovers nothing, so it dials nothing either: the error
// surfaces, wrapping net.ErrClosed.
func (c *SiteClient) recoverOp(shard int, op func(*wire.SiteClient) error, err error, staleBudget int) error {
	if c.closed.Load() {
		return fmt.Errorf("cluster: shard %d: %w (client closed: %w)", shard, err, net.ErrClosed)
	}
	sc := c.shards[shard]
	reconnected := false
	leaseWaits := 0
	for {
		switch {
		case errors.Is(err, wire.ErrStaleRoute):
			if staleBudget <= 0 {
				return fmt.Errorf("cluster: shard %d: %w (no newer route table arrived)", shard, err)
			}
			staleBudget--
			retryObs("reroute", 0)
			if herr := c.healStaleRoute(shard, staleBudget); herr != nil {
				return fmt.Errorf("cluster: shard %d: %w (reroute: %v)", shard, err, herr)
			}
			if sc = c.shards[shard]; sc == nil || sc.client == nil {
				// The adopted table retired this slot. The refused offers
				// were replayed to their new owners by the heal, which is
				// everything op was shipping, so it is satisfied.
				return nil
			}
		case errors.Is(err, wire.ErrLeaseLapsed):
			if werr := c.leaseWait(shard, &leaseWaits); werr != nil {
				return fmt.Errorf("cluster: shard %d: %w (lease: %v)", shard, err, werr)
			}
		case errors.Is(err, wire.ErrSampleSize):
			return fmt.Errorf("cluster: shard %d: %w", shard, err)
		default:
			ferr := c.failover(shard)
			if ferr != nil {
				// errPrimaryHealthy: the server is alive but our connection
				// is not (idle timeout, reset), so re-dial the same primary,
				// replay the unacked window, and retry. A second failure
				// against a healthy primary is a protocol error and surfaces.
				if !errors.Is(ferr, errPrimaryHealthy) || reconnected || c.reconnect(shard) != nil {
					return fmt.Errorf("cluster: shard %d: %w (failover: %v)", shard, err, ferr)
				}
				reconnected = true
			}
		}
		if err = op(sc.client); err == nil {
			return nil
		}
	}
}

// retryMax resolves the operative lease-wait/reroute budget from the dial
// options (see wire.Options.RetryMax).
func (c *SiteClient) retryMax() int {
	if c.opts.RetryMax < 0 {
		return 0
	}
	if c.opts.RetryMax == 0 {
		return wire.DefaultRetryMax
	}
	return c.opts.RetryMax
}

// retryBase resolves the operative backoff base from the dial options.
func (c *SiteClient) retryBase() time.Duration {
	if c.opts.RetryBase <= 0 {
		return wire.DefaultRetryBase
	}
	return c.opts.RetryBase
}

// backoffDelay is the nth retry's pause: exponential from base, capped at
// 500ms, with half-width jitter so a fleet of clients fenced by the same
// lapse does not retry in lockstep.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	const ceiling = 500 * time.Millisecond
	d := base
	for i := 1; i < attempt && d < ceiling; i++ {
		d *= 2
	}
	if d > ceiling {
		d = ceiling
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// leaseWait handles one wire.ErrLeaseLapsed NACK: back off (exponentially,
// with jitter), then reconnect — the unacked replay inside reconnect doubles
// as the probe, succeeding exactly when the primary's lease has renewed.
// After retryMax fenced rounds it force-promotes the next member instead
// (promotion re-arms the lease on the promoted server, unfencing the group
// even if the old primary never recovers). A connection-level reconnect
// failure returns nil so the caller's next attempt surfaces it to the
// ordinary liveness path.
func (c *SiteClient) leaseWait(shard int, waits *int) error {
	for {
		*waits++
		if *waits > c.retryMax() {
			retryObs("promote", 0)
			return c.forcePromote(shard)
		}
		delay := backoffDelay(c.retryBase(), *waits)
		retryObs("lease-wait", delay)
		time.Sleep(delay)
		rerr := c.reconnect(shard)
		if rerr == nil {
			return nil // lease renewed; replay was accepted
		}
		if !errors.Is(rerr, wire.ErrLeaseLapsed) {
			return nil // not a fence: let the liveness path diagnose it
		}
	}
}

// healStaleRoute recovers from a strict-route fence: it rebuilds the shard's
// connection around the SAME site node (the node's duplicate memo survives,
// so re-running the caller's op refreshes instead of re-offering — a fresh
// node would re-offer the moved key to the donor and be fenced again),
// adopts the newest pushed table, and replays every offer the fenced primary
// refused or never acknowledged to the slot that owns it under the new
// table. budget bounds the recursion when a replayed batch is itself fenced.
func (c *SiteClient) healStaleRoute(shard, budget int) error {
	sc := c.shards[shard]
	var unacked []wire.BatchEntry
	if sc.client != nil {
		_ = sc.client.Close()
		unacked = sc.client.Unacked()
		sc.retiredSent += sc.client.MessagesSent()
		sc.retiredReceived += sc.client.MessagesReceived()
		sc.client = nil
	}
	if err := c.reconnect(shard); err != nil {
		return err
	}
	// The route-push rode the same connection as the NACK (pushes are written
	// before the fence can fire), so the newer table is already in the
	// mailbox by the time we get here.
	if err := c.maybeApplyRoute(); err != nil {
		return err
	}
	byOwner := make(map[int][]wire.BatchEntry)
	for _, e := range unacked {
		owner := c.table.Lookup(c.routeHash(e.Msg.Key))
		byOwner[owner] = append(byOwner[owner], e)
	}
	for owner, entries := range byOwner {
		entries := entries
		err := c.doRetry(owner, func(client *wire.SiteClient) error { return client.Replay(entries) }, budget)
		if err != nil {
			return err
		}
	}
	return nil
}

// reconnect replaces the shard's connection to its current primary, carrying
// the surviving site node and unacked window over, exactly like a failover
// minus the promotion.
func (c *SiteClient) reconnect(shard int) error {
	sc := c.shards[shard]
	var unacked []wire.BatchEntry
	if sc.client != nil {
		_ = sc.client.Close()
		unacked = sc.client.Unacked()
	}
	client, err := wire.DialSiteOptions(sc.node, sc.members[sc.primary], c.opts)
	if err != nil {
		return err
	}
	if err := client.Replay(unacked); err != nil {
		_ = client.Close()
		return err
	}
	if sc.client != nil {
		sc.retiredSent += sc.client.MessagesSent()
		sc.retiredReceived += sc.client.MessagesReceived()
	}
	sc.client = client
	return nil
}

// errPrimaryHealthy distinguishes "the primary is fine, your error was not a
// liveness problem" from "no member could be promoted".
var errPrimaryHealthy = errors.New("current primary is healthy; not a liveness failure")

// failover health-checks the shard's current primary and, if it is dead,
// promotes the next live member (epoch = member index), reconnects the
// surviving site node to it, and replays the unacked window. A nil return
// means a new primary is connected and the caller should retry.
func (c *SiteClient) failover(shard int) error {
	sc := c.shards[shard]
	start := time.Now()
	// Liveness check first: a protocol error from a healthy coordinator must
	// surface (or trigger a plain reconnect, see recoverOp), not a promotion
	// storm.
	if _, err := wire.ProbeEpoch(sc.members[sc.primary], c.opts.Codec); err == nil {
		return errPrimaryHealthy
	}
	return c.promoteWalk(shard, start)
}

// forcePromote is the promotion walk without the liveness probe: leaseWait
// uses it to depose a primary that is alive but cannot renew its lease
// (accepting the promotion re-arms the lease on the new primary).
func (c *SiteClient) forcePromote(shard int) error {
	return c.promoteWalk(shard, time.Now())
}

// promoteWalk promotes the next live member past the shard's current
// primary, reconnects the surviving site node to it, and replays the unacked
// window.
func (c *SiteClient) promoteWalk(shard int, start time.Time) error {
	sc := c.shards[shard]
	if len(sc.members) < 2 {
		return errors.New("no replicas configured")
	}
	// The old connection is dead; collect everything it could not prove was
	// applied. Close first, so its final flush attempt has run and its reader
	// has exited before Unacked collects what is left. (sc.client is nil when
	// the *initial* dial failed — nothing to retire or replay then.)
	var unacked []wire.BatchEntry
	if sc.client != nil {
		_ = sc.client.Close()
		unacked = sc.client.Unacked()
	}
	var lastErr error = errors.New("no members past the dead primary")
	for j := sc.primary + 1; j < len(sc.members); j++ {
		if _, err := wire.PromoteAddr(sc.members[j], uint64(j), c.opts.Codec); err != nil {
			lastErr = err
			continue // dead too; keep walking
		}
		client, err := wire.DialSiteOptions(sc.node, sc.members[j], c.opts)
		if err != nil {
			lastErr = err
			continue
		}
		if err := client.Replay(unacked); err != nil {
			_ = client.Close()
			lastErr = err
			continue
		}
		if sc.client != nil {
			sc.retiredSent += sc.client.MessagesSent()
			sc.retiredReceived += sc.client.MessagesReceived()
		}
		sc.primary, sc.client = j, client
		c.mu.Lock()
		c.failovers++
		c.failoverTime += time.Since(start)
		c.mu.Unlock()
		obsFailovers.Inc()
		obsFailoverNs.Observe(time.Since(start).Nanoseconds())
		obs.Logger().Info("failover promoted",
			"shard", shard, "member", j, "epoch", j, "replayed", len(unacked))
		return nil
	}
	return lastErr
}

// Failovers returns how many promotions this client has performed and the
// total wall-clock time spent inside them (ingest stall attributable to
// failover).
func (c *SiteClient) Failovers() (int, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failovers, c.failoverTime
}

// ReshardStalls returns how many route updates this client has applied and
// the total wall-clock time spent applying them (ingest stall attributable
// to resharding cutovers: draining windows, dialing new shards, retiring
// old ones).
func (c *SiteClient) ReshardStalls() (int, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reshards, c.reshardTime
}

// OfferRouteUpdate publishes a routing change to this client. It may be
// called from any goroutine (the reshard driver's, typically); the client
// applies the update at its next operation boundary — Observe, EndSlot,
// Flush, or an explicit ApplyRouteUpdates — and only if the update is newer
// than everything it has applied or been offered so far.
func (c *SiteClient) OfferRouteUpdate(u *RouteUpdate) {
	for {
		cur := c.pendingRoute.Load()
		if cur != nil && cur.Table.Version >= u.Table.Version {
			return
		}
		if c.routeVer.Load() >= u.Table.Version {
			return
		}
		if c.pendingRoute.CompareAndSwap(cur, u) {
			return
		}
	}
}

// RouteVersion returns the version of the routing table the client is
// currently ingesting under. It may be read from any goroutine.
func (c *SiteClient) RouteVersion() uint64 { return c.routeVer.Load() }

// Table returns the routing table the client currently ingests under. Like
// every other non-atomic method it must be called from the client's owning
// goroutine.
func (c *SiteClient) Table() RangeTable { return c.table.clone() }

// Groups returns the slot-indexed member addresses the client currently
// routes to (nil entries for slots its table does not route to, retired
// ones included) — the address set query clients should use so reads follow
// reshards. Like every other method it must be called from the client's
// owning goroutine.
func (c *SiteClient) Groups() [][]string {
	routed := make(map[int]bool, len(c.table.Slots))
	for _, slot := range c.table.Slots {
		routed[slot] = true
	}
	out := make([][]string, len(c.groups))
	for slot, members := range c.groups {
		if routed[slot] && members != nil {
			out[slot] = append([]string(nil), members...)
		}
	}
	return out
}

// Closed reports whether Close has completed: the client flushed everything
// it ever accepted and will not apply further route updates.
func (c *SiteClient) Closed() bool { return c.closed.Load() }

// ApplyRouteUpdates applies any pending route update immediately. Like every
// other SiteClient method it must be called from the client's owning
// goroutine; it exists for callers that are otherwise idle (a reshard cutover
// cannot complete until every site has either applied the update or closed).
func (c *SiteClient) ApplyRouteUpdates() error { return c.maybeApplyRoute() }

// maybeApplyRoute is the cooperative half of a reshard cutover. Called at
// every operation boundary on the owning goroutine, it checks the mailbox
// and, when a newer table has been published: drains every in-flight batch
// and pipeline window under the OLD table (so no offer can be routed by a
// table it was not addressed under), dials the slots the new table adds,
// swaps the table, and retires connections to slots the new table dropped.
// On error (say, a new shard that cannot be dialed yet) the update stays
// pending and the next operation retries.
func (c *SiteClient) maybeApplyRoute() error {
	u := c.pendingRoute.Load()
	if u == nil || c.closed.Load() {
		return nil
	}
	if u.Table.Version <= c.table.Version {
		c.pendingRoute.CompareAndSwap(u, nil)
		return nil
	}
	start := time.Now()
	// Phase 1: drain. After this, every offer this client ever accepted is
	// acknowledged by a coordinator that owned its key under the old table.
	if err := c.fanOut((*wire.SiteClient).Flush); err != nil {
		return fmt.Errorf("cluster: reshard drain: %w", err)
	}
	obsRouteDrainNs.Observe(time.Since(start).Nanoseconds())
	if c.table.Version >= u.Table.Version {
		// A stale-route heal inside the drain already applied this update.
		return nil
	}
	// Phase 2: dial new slots before swapping, so a dial failure leaves the
	// client fully consistent under the old table.
	dialStart := time.Now()
	for slot := len(c.shards); slot <= u.Table.MaxSlot(); slot++ {
		c.shards = append(c.shards, nil)
	}
	for _, slot := range u.Table.Slots {
		if sc := c.shards[slot]; sc != nil && sc.client != nil {
			continue
		}
		if slot >= len(u.Groups) || len(u.Groups[slot]) == 0 {
			return fmt.Errorf("cluster: route update v%d routes to slot %d but lists no members for it", u.Table.Version, slot)
		}
		if err := c.dialShard(slot, append([]string(nil), u.Groups[slot]...)); err != nil {
			return fmt.Errorf("cluster: reshard dial slot %d: %w", slot, err)
		}
	}
	obsRouteDialNs.Observe(time.Since(dialStart).Nanoseconds())
	// Phase 3: the flip. Plain field writes — the table is only read by this
	// goroutine.
	c.table = u.Table.clone()
	c.groups = cloneGroups(u.Groups)
	// Phase 3b: repartition site-side window state. Sliding-window site
	// instances hold per-shard candidate stores (T_i); after the flip, the
	// tuples of keys that moved to another shard must migrate into that
	// shard's instance, or their expiry-driven promotions would never reach
	// the new owner and the merged window sample could miss a live minimum.
	// Runs before phase 4 so a merge moves the absorbed instance's store
	// into the survivor's before the absorbed connection closes.
	if err := c.repartitionSiteState(); err != nil {
		return fmt.Errorf("cluster: reshard site-state repartition: %w", err)
	}
	// Phase 4: retire connections to slots the new table no longer routes
	// to. Their windows were drained in phase 1 and nothing new was routed
	// to them since, so closing cannot lose offers; counters fold into the
	// retired totals exactly as on failover.
	live := make(map[int]bool, len(c.table.Slots))
	for _, slot := range c.table.Slots {
		live[slot] = true
	}
	var firstErr error
	for slot, sc := range c.shards {
		if sc == nil || sc.client == nil || live[slot] {
			continue
		}
		if err := sc.client.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		sc.retiredSent += sc.client.MessagesSent()
		sc.retiredReceived += sc.client.MessagesReceived()
		sc.client = nil
		if l, ok := sc.node.(interface{ Leave() }); ok {
			l.Leave() // its store moved in phase 3b; it promotes nothing more
		}
	}
	c.routeVer.Store(c.table.Version)
	c.pendingRoute.CompareAndSwap(u, nil)
	c.mu.Lock()
	c.reshards++
	c.reshardTime += time.Since(start)
	c.mu.Unlock()
	obsRouteFlips.Inc()
	obsRouteApplyNs.Observe(time.Since(start).Nanoseconds())
	obs.Logger().Info("route flip applied", "version", c.table.Version)
	return firstErr
}

// repartitionSiteState migrates per-shard site node state across a route
// flip: every live instance that implements core.Snapshotter is snapshotted,
// entries whose keys now route elsewhere move to the owning slot's instance
// (merged under the sampler kind's own union semantics), and each instance
// is restored to exactly the keys it owns under the new table. Site nodes
// without snapshots (the infinite-window site's threshold-and-memo state is
// per-shard-valid as is) are left untouched. That holds for a bounded site
// too, whether its bound is its own (core.NewBoundedInfiniteSite) or the one
// all the client's shard sites share, those of slots the flip added included
// (core.NewSharedInfiniteSite): the bound L is the s-th smallest hash of s
// distinct keys offered through it, so whichever shards own them after the
// flip, L is still at least the merged sample's threshold, just as a u_j
// learned before the split is, and an arrival it drops can never enter the
// merged sample. Sliding-window sites that share the client's candidate
// (sliding.NewSharedSite) snapshot their stores alone, so the stores move
// and the candidate stays: it is still the lowest live hash the client has
// offered or heard, whichever shard owns it now, and a later promotion still
// takes the minimum over every store. The sites of slots the flip retires
// leave the candidate in phase 4, once their stores have moved.
func (c *SiteClient) repartitionSiteState() error {
	type snap struct {
		slot int
		node core.Snapshotter
		st   core.State
	}
	var snaps []snap
	for slot, sc := range c.shards {
		if sc == nil || sc.client == nil {
			continue
		}
		sn, ok := sc.node.(core.Snapshotter)
		if !ok {
			return nil // uniform site type per client; nothing to migrate
		}
		snaps = append(snaps, snap{slot: slot, node: sn, st: sn.Snapshot()})
	}
	// moved[slot] collects the entries whose keys slot now owns.
	moved := make(map[int][]netsim.SampleEntry)
	for i := range snaps {
		s := &snaps[i]
		collect := func(e netsim.SampleEntry) {
			owner := c.table.Lookup(c.routeHash(e.Key))
			if owner != s.slot {
				moved[owner] = append(moved[owner], e)
			}
		}
		for _, sec := range s.st.Sections {
			for _, e := range sec.Entries {
				collect(e)
			}
			if sec.Candidate != nil {
				collect(*sec.Candidate)
			}
		}
		s.st = core.FilterState(s.st, func(key string) bool {
			return c.table.Lookup(c.routeHash(key)) == s.slot
		})
	}
	for i := range snaps {
		s := &snaps[i]
		if in := moved[s.slot]; len(in) > 0 {
			incoming := core.State{
				Version:    s.st.Version,
				Kind:       s.st.Kind,
				SampleSize: s.st.SampleSize,
				Slot:       s.st.Slot,
				Sections:   make([]core.SectionState, len(s.st.Sections)),
			}
			incoming.Sections[0] = core.SectionState{Entries: in}
			merged, err := core.MergeStates(s.st, incoming)
			if err != nil {
				return err
			}
			s.st = merged
		}
		if err := s.node.Restore(s.st); err != nil {
			return err
		}
	}
	return nil
}

// Observe routes one element observation to its owning shard. The key is
// hashed once: its digest picks the shard, as in RouteHash, and is handed on
// to a site node that filters with the same hash function. The first attempt
// calls the shard's connection directly; only a failed attempt builds the
// closure the recovery loop retries.
func (c *SiteClient) Observe(key string, slot int64) error {
	if c.pendingRoute.Load() != nil {
		if err := c.maybeApplyRoute(); err != nil {
			return err
		}
	}
	d := c.hasher.Hash(key)
	shard := c.table.Lookup(hashing.Mix64(d))
	sc := c.shards[shard]
	if sc.client == nil {
		return noConnection(shard)
	}
	err := observeOn(sc.client, sc.digest, key, d, slot)
	if err == nil {
		return nil
	}
	digest := sc.digest
	return c.recoverOp(shard, func(client *wire.SiteClient) error {
		return observeOn(client, digest, key, d, slot)
	}, err, c.retryMax())
}

// observeOn feeds one arrival with digest d to a shard connection, through
// the node's digest entry point when it takes the router's digest.
func observeOn(client *wire.SiteClient, digest bool, key string, d uint64, slot int64) error {
	if digest {
		return client.ObserveDigest(key, d, slot)
	}
	return client.Observe(key, slot)
}

// fanOut runs op on every shard connection concurrently and returns the
// first error, tagged with its shard. Each shardConn is touched by exactly
// one goroutine, so this respects the per-client single-caller contract; the
// win is that per-shard flushes and window drains overlap instead of paying
// one coordinator round trip per shard in sequence. A fan-out goroutine
// recovers only its own shard (failover, reconnect, lease wait) and hands a
// stale-route NACK back unhealed, with a budget of 0: healing replays offers
// into sibling shards' connections and may flip the routing table, so the
// caller heals those shards after the join, one at a time, starting each
// recovery from the NACK rather than from another attempt on the fenced
// connection.
func (c *SiteClient) fanOut(op func(*wire.SiteClient) error) error {
	if len(c.shards) == 1 {
		if c.shards[0] == nil || c.shards[0].client == nil {
			return nil
		}
		return c.doRetry(0, op, c.retryMax())
	}
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for shard, sc := range c.shards {
		if sc == nil || sc.client == nil {
			continue
		}
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			errs[shard] = c.doRetry(shard, op, 0)
		}(shard)
	}
	wg.Wait()
	var first error
	for shard, err := range errs {
		if errors.Is(err, wire.ErrStaleRoute) {
			err = nil
			// An earlier heal's table flip may have retired this slot; the
			// flip's drain settled its offers first, so op is satisfied.
			if c.shards[shard].client != nil {
				err = c.recoverOp(shard, op, wire.ErrStaleRoute, c.retryMax())
			}
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// EndSlot signals the end of a time slot on every shard concurrently (the
// sliding-window protocol needs it for expiry-driven promotions; it also
// flushes batches and drains pipeline windows).
func (c *SiteClient) EndSlot(slot int64) error {
	if err := c.maybeApplyRoute(); err != nil {
		return err
	}
	return c.fanOut(func(client *wire.SiteClient) error { return client.EndSlot(slot) })
}

// Flush ships any batched offers and drains the pipeline window on every
// shard connection concurrently (applying any pending route update first).
func (c *SiteClient) Flush() error {
	if err := c.maybeApplyRoute(); err != nil {
		return err
	}
	return c.fanOut((*wire.SiteClient).Flush)
}

// Close closes every shard connection concurrently (flushing batches and
// draining pipeline windows first). Every connection is closed even when
// some fail; the first error wins. If a shard's primary dies at shutdown
// with offers still unacknowledged, the per-shard failover inside fanOut
// promotes a replica and replays them before closing, so a clean Close means
// every offer reached a live coordinator. Pending route updates are NOT
// applied — everything buffered was routed under the current table and is
// delivered to the coordinators that own it there; the Closed flag (set only
// after the drain completes) tells the reshard driver this client's offers
// are all settled.
func (c *SiteClient) Close() error {
	err := c.fanOut((*wire.SiteClient).Close)
	c.closed.Store(true)
	return err
}

// MessagesSent returns the offers shipped across all shard connections,
// including connections retired by failover or resharding (replayed offers
// count once per transmission).
func (c *SiteClient) MessagesSent() int {
	total := 0
	for _, sc := range c.shards {
		if sc == nil {
			continue
		}
		total += sc.retiredSent
		if sc.client != nil {
			total += sc.client.MessagesSent()
		}
	}
	return total
}

// MessagesReceived returns the replies received across all shard
// connections, including connections retired by failover or resharding.
func (c *SiteClient) MessagesReceived() int {
	total := 0
	for _, sc := range c.shards {
		if sc == nil {
			continue
		}
		total += sc.retiredReceived
		if sc.client != nil {
			total += sc.client.MessagesReceived()
		}
	}
	return total
}

// Query fans a sample query out to every shard coordinator concurrently and
// merges the per-shard samples into the exact global bottom-sampleSize
// sample (sampleSize <= 0 keeps the whole union). It is an infinite-window
// read: a shard's sample is its window store's minimum, which can be an
// expired element behind a lagging slot clock, so a sliding-window
// deployment is read with QueryWindowGroups.
func Query(addrs []string, sampleSize int, codec wire.Codec) ([]netsim.SampleEntry, error) {
	if len(addrs) == 0 {
		return nil, ErrNoShards
	}
	groups := make([][]string, len(addrs))
	for i, addr := range addrs {
		groups[i] = []string{addr}
	}
	return QueryGroups(groups, sampleSize, codec)
}

// QueryGroups is Query over replica groups: for each shard it locates the
// current primary (by probing member epochs) and queries it, falling back to
// a live replica — whose sample is at most one sync interval stale — if the
// primary cannot be reached. The per-shard samples merge into the global
// bottom-sampleSize sample exactly as in Query. Like Query it is an
// infinite-window read. Nil or empty group entries (slots retired by
// resharding) are skipped; at least one live group is required.
func QueryGroups(groups [][]string, sampleSize int, codec wire.Codec) ([]netsim.SampleEntry, error) {
	samples, err := readGroups(groups, "query", func(members []string) ([]netsim.SampleEntry, error) {
		return queryGroup(members, codec)
	})
	if err != nil {
		return nil, err
	}
	return Merge(sampleSize, samples...), nil
}

// readGroups runs read concurrently on every live group's members and
// returns the entries read, indexed by slot. Nil or empty group entries
// (slots retired by resharding) are skipped; at least one live group is
// required. The first failing slot's error is returned, naming the read as
// what.
func readGroups(groups [][]string, what string, read func(members []string) ([]netsim.SampleEntry, error)) ([][]netsim.SampleEntry, error) {
	out := make([][]netsim.SampleEntry, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	live := 0
	for i, members := range groups {
		if len(members) == 0 {
			continue
		}
		live++
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = read(members)
		}()
	}
	if live == 0 {
		return nil, ErrNoShards
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: %s shard %d: %w", what, i, err)
		}
	}
	return out, nil
}

// WithGroupPrimary runs op against a replica group's current primary: it
// probes members for the group epoch (the promotion scheme numbers epochs
// by member index, so the probed epoch names the primary) and hands op a
// connection to that member. When the probed member names itself, which
// every healthy read's first probe does, op runs on the probe's own
// connection, so a read costs one connection per shard. When it names
// another member, op runs on a connection to that member, and falls back to
// the still-open probe connection — whose state is at most one sync interval
// stale — when the supposed primary is unreachable (the mid-failover gap).
// Every connection the walk opens is closed before it returns, so op must
// not keep the client. It is the one shared implementation of the
// primary-resolution walk; queries, snapshots, and the dds package all route
// through it so a change to the epoch-numbering scheme cannot desynchronize
// callers.
func WithGroupPrimary(members []string, codec wire.Codec, op func(*wire.SyncClient) error) error {
	err := ErrNoShards
	for j := range members {
		if err = withMemberPrimary(members, j, codec, op); err == nil {
			return nil
		}
	}
	return err
}

// withMemberPrimary is one step of WithGroupPrimary's walk: probe members[j]
// and run op on the primary it names, or on the probe connection itself.
func withMemberPrimary(members []string, j int, codec wire.Codec, op func(*wire.SyncClient) error) error {
	probe, err := wire.DialSync(members[j], codec)
	if err != nil {
		return err
	}
	defer probe.Close()
	epoch, err := probe.Promote(0)
	if err != nil {
		return err
	}
	if epoch >= uint64(len(members)) || int(epoch) == j {
		return op(probe)
	}
	if primary, err := wire.DialSync(members[epoch], codec); err == nil {
		defer primary.Close()
		if op(primary) == nil {
			return nil
		}
	}
	return op(probe)
}

// queryGroup returns one shard's sample, preferring the current primary.
func queryGroup(members []string, codec wire.Codec) ([]netsim.SampleEntry, error) {
	var sample []netsim.SampleEntry
	err := WithGroupPrimary(members, codec, func(c *wire.SyncClient) error {
		s, err := c.Query()
		if err == nil {
			sample = s
		}
		return err
	})
	return sample, err
}

// QueryWindowGroups returns the live window sample at slot now across
// replica groups: one entry — the minimum-hash element still inside the
// window — or nil when nothing is live. Unlike QueryGroups + MergeWindow it
// reads each shard's full state snapshot, not its single current sample: a
// shard whose slot clock lags (nothing advanced it since its minimum
// expired) reports an expired minimum that hides still-live higher-hash
// candidates, and only the snapshot's candidate store makes the query exact
// in that case. A now of 0 reads the window as of the newest slot clock
// among the snapshots read, so a shard whose clock lags cannot pass off an
// element that has left the window as live.
func QueryWindowGroups(groups [][]string, now int64, codec wire.Codec) ([]netsim.SampleEntry, error) {
	var mu sync.Mutex
	newest := int64(0) // the newest slot clock among the states read
	candidates, err := readGroups(groups, "window query", func(members []string) ([]netsim.SampleEntry, error) {
		var entries []netsim.SampleEntry
		err := WithGroupPrimary(members, codec, func(c *wire.SyncClient) error {
			st, _, _, err := c.FetchState()
			if err != nil {
				return err
			}
			for _, sec := range st.Sections {
				entries = append(entries, sec.Entries...)
				if sec.Candidate != nil {
					entries = append(entries, *sec.Candidate)
				}
			}
			mu.Lock()
			newest = max(newest, st.Slot)
			mu.Unlock()
			return nil
		})
		return entries, err
	})
	if err != nil {
		return nil, err
	}
	if now == 0 {
		now = newest
	}
	return MergeWindow(now, candidates...), nil
}
