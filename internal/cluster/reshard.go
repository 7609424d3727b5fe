package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/wire"
)

// Resharder drives online shard splits and merges against a running
// replica.Server-backed cluster, without stopping ingest. It exploits the
// same property replication does: a shard's entire protocol state is one
// bottom-s sample frame, so a range of the key space can be handed from one
// coordinator to another exactly, in one message, filtered by routing hash.
//
// A split of donor slot D at point mid runs in phases:
//
//  1. Bring up the new shard's replica group (a fresh slot) and assign it
//     its range [mid, hi) at the next table version (a route-update frame).
//  2. Warm it: snapshot D's state and hand it over (a state-handoff frame);
//     the receiver keeps only the entries hashing into its range, merged
//     into its own state. D keeps serving the whole old range throughout.
//  3. Cut over: publish the new table to every registered site client. Each
//     applies it independently at its next operation boundary — drain the
//     old connections (replaying any unacked window through the ordinary
//     failover path if a primary died), dial the new shard, flip the table.
//     The version fence makes the flip exactly-once per site.
//  4. Settle: once every site has flipped (or closed), no offer for the
//     moved range can reach D anymore. Snapshot D once more and hand off the
//     delta that arrived between the warm snapshot and the last flip.
//     Handoff application is idempotent, so the overlap with phase 2 is
//     harmless.
//  5. Restrict: a route-update tells D it now owns [lo, mid); D drops the
//     entries it handed away. One forced sync round then propagates both
//     sides' new state to their replicas.
//
// A merge of two adjacent ranges is the same machinery with the survivor
// widened first and the absorbed slot's sample handed to it after the flip,
// after which the absorbed group retires.
//
// Why the merged sample stays exact through all of this: every global
// bottom-s key is retained by at least one live shard at all times. A key
// can only leave a shard's sketch by eviction (which requires s smaller
// hashes in that sketch — then it can never re-enter the global bottom-s),
// or by a restrict-prune, which happens only after the settling handoff has
// delivered it to its new owner. Query-time Merge unions the live shards'
// sketches, so the union's bottom-s is unchanged by where entries live.
type Resharder struct {
	srv   *replica.Server
	codec wire.Codec

	// WaitTimeout bounds how long a cutover waits for every registered site
	// client to flip. Sites flip at operation boundaries, so an idle,
	// unclosed site that never operates again would stall the cutover; the
	// timeout turns that into an error instead of a hang.
	WaitTimeout time.Duration

	mu    sync.Mutex // serializes plans and guards table/sites
	table RangeTable
	sites []*SiteClient

	// Durability barrier (optional). When set, every completed plan rewrites
	// the spool manifest with the new table and force-spools all live shards,
	// so a crash right after a cutover restores into the new topology rather
	// than replaying it.
	spool     *durable.Spool
	spoolMeta durable.Manifest // SampleSize/Window/Seed template for manifests
}

// NewResharder builds a driver over a running cluster. table must be the
// table the cluster currently routes under (router.Table() of the router the
// site clients were dialed with); codec is used for the driver's snapshot,
// handoff, and route-update connections.
func NewResharder(srv *replica.Server, table RangeTable, codec wire.Codec) *Resharder {
	return &Resharder{srv: srv, codec: codec, table: table.clone(), WaitTimeout: 30 * time.Second}
}

// Register adds site clients whose routing the driver must flip during
// cutovers. Every live (unclosed) client ingesting into the cluster must be
// registered, or offers routed under a stale table could reach a donor after
// its settling handoff and be dropped by the restrict-prune.
func (r *Resharder) Register(clients ...*SiteClient) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sites = append(r.sites, clients...)
}

// SetSpool arms the durability barrier: after every completed plan the
// driver rewrites sp's manifest with the new route table (meta supplies the
// sampler-config fields), force-spools every live shard, and tags future
// snapshots with the new route version. Pass the spool the server was
// started with.
func (r *Resharder) SetSpool(sp *durable.Spool, meta durable.Manifest) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spool = sp
	r.spoolMeta = meta
}

// persistPlan runs the post-plan durability barrier. The plan itself has
// already committed cluster-wide, so failures here are warned, not fatal: a
// stale manifest only costs a replayed restore, never correctness.
func (r *Resharder) persistPlan(next RangeTable) {
	if r.spool == nil {
		return
	}
	r.srv.NoteRouteVersion(next.Version)
	m := TableManifest(next, r.spoolMeta.SampleSize, r.spoolMeta.Window, r.spoolMeta.Seed)
	if err := r.spool.WriteManifest(m); err != nil {
		obs.Logger().Warn("reshard durability barrier: manifest write failed", "version", next.Version, "err", err.Error())
		return
	}
	if err := r.srv.SpoolNow(); err != nil {
		obs.Logger().Warn("reshard durability barrier: spool failed", "version", next.Version, "err", err.Error())
	}
}

// Table returns the cluster's current routing table.
func (r *Resharder) Table() RangeTable {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.table.clone()
}

// Groups returns the cluster's current slot-indexed group addresses.
func (r *Resharder) Groups() [][]string { return r.srv.GroupAddrs() }

// ReshardReport records what one plan execution did and what it cost.
type ReshardReport struct {
	Op        string `json:"op"` // "split" or "merge"
	Version   uint64 `json:"version"`
	Donor     int    `json:"donor"`     // slot that gave up a range (split: the split shard; merge: the absorbed shard)
	Successor int    `json:"successor"` // slot that received it
	Lo        uint64 `json:"lo"`        // moved range [Lo, Hi); Hi == 0 means 2^64
	Hi        uint64 `json:"hi"`
	// WarmEntries and SettleEntries count the donor sample entries carried by
	// the pre-cutover and post-cutover handoff frames (the whole resharding
	// data motion: a bottom-s sketch, not a key-space scan).
	WarmEntries   int `json:"warm_entries"`
	SettleEntries int `json:"settle_entries"`
	// CutoverStall is the wall-clock from publishing the new table until
	// every registered site client had flipped (or closed) — the window in
	// which any site might stall on the flip.
	CutoverStall time.Duration `json:"cutover_stall"`
	// Total is the whole plan's wall-clock, group bring-up and handoffs
	// included.
	Total time.Duration `json:"total"`
}

// Split cuts the range owned by slot at mid: slot keeps the lower part, a
// freshly started shard group takes [mid, hi). It blocks until the cutover
// has fully settled and returns the executed plan's report.
func (r *Resharder) Split(slot int, mid uint64) (*ReshardReport, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := time.Now()
	lo, hi, ok := r.table.RangeOf(slot)
	if !ok {
		return nil, fmt.Errorf("cluster: split: slot %d owns no range", slot)
	}
	newSlot, members, err := r.srv.AddGroup()
	if err != nil {
		return nil, fmt.Errorf("cluster: split: start new shard group: %w", err)
	}
	next, err := r.table.Split(slot, mid, newSlot)
	if err != nil {
		_ = r.srv.RetireGroup(newSlot)
		return nil, err
	}
	rep := &ReshardReport{Op: "split", Version: next.Version, Donor: slot, Successor: newSlot, Lo: mid, Hi: hi}
	tc := obs.StartTrace() // one trace spans every phase of the plan
	// Phase 1: the new shard learns its range and version before anything
	// else, so the warm handoff below cannot be misfiltered or unfenced.
	phaseStart := time.Now()
	if _, err := wire.RouteUpdateAddr(members[0], next.Version, mid, hi, r.codec); err != nil {
		_ = r.srv.RetireGroup(newSlot)
		return nil, fmt.Errorf("cluster: split: assign range to new shard: %w", err)
	}
	reshardPhase(tc, "split", "assign", next.Version, phaseStart)
	// Phase 2: warm the new shard from the donor's snapshot while the donor
	// keeps serving.
	phaseStart = time.Now()
	rep.WarmEntries, err = r.handoff(slot, newSlot, next.Version, mid, hi)
	if err != nil {
		_ = r.srv.RetireGroup(newSlot)
		return nil, fmt.Errorf("cluster: split: warm handoff: %w", err)
	}
	reshardPhase(tc, "split", "warm", next.Version, phaseStart)
	// Phase 3: cut every site over to the new table.
	phaseStart = time.Now()
	if rep.CutoverStall, err = r.cutover(next, tc); err != nil {
		return nil, err
	}
	reshardPhase(tc, "split", "cutover", next.Version, phaseStart)
	// Phase 4: settle the delta that reached the donor between the warm
	// snapshot and the last site's flip.
	phaseStart = time.Now()
	if rep.SettleEntries, err = r.handoff(slot, newSlot, next.Version, mid, hi); err != nil {
		return nil, fmt.Errorf("cluster: split: settling handoff: %w", err)
	}
	reshardPhase(tc, "split", "settle", next.Version, phaseStart)
	// Phase 5: the donor drops what it handed away, and one forced sync
	// round propagates both shards' new state to their replicas.
	phaseStart = time.Now()
	if err := r.routeUpdate(slot, next.Version, lo, mid); err != nil {
		return nil, fmt.Errorf("cluster: split: restrict donor: %w", err)
	}
	// From here on both sides NACK offers outside their range instead of
	// accepting keys a later plan would silently prune: every registered site
	// flipped during the cutover, so the only senders still routing under an
	// older table are stale external sites — exactly the ones that must be
	// bounced into rerouting (they apply the pushed table and retry).
	r.srv.RestrictRoute(slot)
	r.srv.RestrictRoute(newSlot)
	if err := r.srv.SyncNow(); err != nil {
		return nil, fmt.Errorf("cluster: split: sync replicas: %w", err)
	}
	reshardPhase(tc, "split", "restrict", next.Version, phaseStart)
	r.persistPlan(next)
	rep.Total = time.Since(start)
	reshardPlans("split").Inc()
	obsPlanNs.Observe(rep.Total.Nanoseconds())
	return rep, nil
}

// MergeAt merges range rangeIdx with the adjacent range to its right: the
// left range's shard absorbs the right one's range and sample, and the
// absorbed shard group retires. (Table returns the current table for picking
// rangeIdx.)
func (r *Resharder) MergeAt(rangeIdx int) (*ReshardReport, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := time.Now()
	next, survivor, retired, err := r.table.Merge(rangeIdx)
	if err != nil {
		return nil, err
	}
	lo, hi, _ := next.RangeOf(survivor)     // the widened range
	mlo, mhi, _ := r.table.RangeOf(retired) // the moved (absorbed) range
	rep := &ReshardReport{Op: "merge", Version: next.Version, Donor: retired, Successor: survivor, Lo: mlo, Hi: mhi}
	tc := obs.StartTrace() // one trace spans every phase of the plan
	// Phase 1: widen the survivor first (its current entries all lie inside
	// the widened range, so the prune is a no-op; the version fence arms it
	// for the handoff).
	phaseStart := time.Now()
	if err := r.routeUpdate(survivor, next.Version, lo, hi); err != nil {
		return nil, fmt.Errorf("cluster: merge: widen survivor: %w", err)
	}
	reshardPhase(tc, "merge", "widen", next.Version, phaseStart)
	// Phase 2: cut every site over; each drains and closes its connection to
	// the absorbed shard after the flip.
	phaseStart = time.Now()
	if rep.CutoverStall, err = r.cutover(next, tc); err != nil {
		return nil, err
	}
	reshardPhase(tc, "merge", "cutover", next.Version, phaseStart)
	// Phase 3: hand the absorbed shard's full sample to the survivor. After
	// the cutover no site routes to the absorbed slot anymore, so its sample
	// is final.
	phaseStart = time.Now()
	if rep.SettleEntries, err = r.handoff(retired, survivor, next.Version, mlo, mhi); err != nil {
		return nil, fmt.Errorf("cluster: merge: handoff: %w", err)
	}
	reshardPhase(tc, "merge", "settle", next.Version, phaseStart)
	// Phase 4: retire the absorbed group and propagate.
	phaseStart = time.Now()
	if err := r.srv.RetireGroup(retired); err != nil {
		return nil, fmt.Errorf("cluster: merge: retire group: %w", err)
	}
	if err := r.srv.SyncNow(); err != nil {
		return nil, fmt.Errorf("cluster: merge: sync replicas: %w", err)
	}
	reshardPhase(tc, "merge", "retire", next.Version, phaseStart)
	r.persistPlan(next)
	rep.Total = time.Since(start)
	reshardPlans("merge").Inc()
	obsPlanNs.Observe(rep.Total.Nanoseconds())
	return rep, nil
}

// handoff snapshots the donor slot's primary state and ships it, filtered to
// [lo, hi), to the receiver slot's primary, returning how many entries the
// frame carried. The snapshot is a full core.State (a state-handoff frame),
// so sliding-window shards hand ranges off exactly like infinite-window
// ones. A donor without Snapshot/Restore fails the handoff with an error
// wrapping wire.ErrNotSnapshottable. Both endpoints are re-resolved per
// attempt so a primary killed mid-plan fails over to its replica.
func (r *Resharder) handoff(donor, receiver int, ver, lo, hi uint64) (int, error) {
	var n, frameBytes int
	err := r.withPrimary(donor, func(donorAddr string) error {
		st, err := wire.SnapshotAddr(donorAddr, r.codec)
		if err != nil {
			return err
		}
		n = core.StateEntryCount(st)
		frameBytes = len(core.EncodeState(st))
		return r.withPrimary(receiver, func(recvAddr string) error {
			ackVer, err := wire.HandoffStateAddr(recvAddr, ver, lo, hi, st, r.codec)
			if err != nil {
				return err
			}
			if ackVer > ver {
				return fmt.Errorf("cluster: handoff to slot %d at route version %d, plan is %d: %w", receiver, ackVer, ver, wire.ErrStaleRoute)
			}
			return nil
		})
	})
	if err == nil {
		obsHandoffEntries.Add(uint64(n))
		obsHandoffBytes.Add(uint64(frameBytes))
	}
	return n, err
}

// routePushFrame encodes a routing table plus the slot-indexed member
// addresses as one route-push frame for the coordinator→site push channel.
func routePushFrame(t RangeTable, groups [][]string) *wire.Frame {
	f := &wire.Frame{
		Type:   wire.FrameRoutePush,
		Seq:    t.Version,
		Bounds: append([]uint64(nil), t.Bounds...),
		Slots:  make([]int64, len(t.Slots)),
		Groups: groups,
	}
	for i, s := range t.Slots {
		f.Slots[i] = int64(s)
	}
	return f
}

// routeUpdate assigns slot its owned range [lo, hi) at the given version.
func (r *Resharder) routeUpdate(slot int, ver, lo, hi uint64) error {
	return r.withPrimary(slot, func(addr string) error {
		ackVer, err := wire.RouteUpdateAddr(addr, ver, lo, hi, r.codec)
		if err != nil {
			return err
		}
		if ackVer > ver {
			return fmt.Errorf("cluster: route update for slot %d at route version %d, plan is %d: %w", slot, ackVer, ver, wire.ErrStaleRoute)
		}
		return nil
	})
}

// withPrimary runs op against the slot's current primary, re-resolving and
// retrying once if the first attempt fails (a kill between resolution and
// dial surfaces as a connection error; the second resolution sees the
// promoted member).
func (r *Resharder) withPrimary(slot int, op func(addr string) error) error {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		addr := r.srv.PrimaryAddr(slot)
		if addr == "" {
			return fmt.Errorf("cluster: shard slot %d has no live primary", slot)
		}
		if err := op(addr); err == nil {
			return nil
		} else {
			lastErr = err
		}
	}
	return lastErr
}

// cutover publishes the next table to every registered site client and waits
// until each has flipped to it or closed, returning the stall (publish →
// last flip). Site clients flip cooperatively at operation boundaries, so
// the wait makes progress exactly as fast as ingest does.
//
// Publishing is the plan's point of no return, so r.table commits here, not
// after the later phases: once any site may have flipped, a future plan must
// build on this version — re-deriving the same version number for a
// different table would fork the version fence. If a later phase of the
// plan fails (settling handoff, donor restrict, replica sync), the cluster
// is left union-safe — the donor merely retains entries it also handed away,
// and query-time Merge dedups — and the next plan proceeds at version+1.
func (r *Resharder) cutover(next RangeTable, tc obs.TraceContext) (time.Duration, error) {
	update := &RouteUpdate{Table: next.clone(), Groups: r.srv.GroupAddrs()}
	start := time.Now()
	for _, c := range r.sites {
		c.OfferRouteUpdate(update)
	}
	// Broadcast the table over the coordinator→site push channel as well:
	// external site processes (never Register-ed — they live outside this
	// process) get the new table over their existing connections and flip
	// live, instead of discovering the reshard on their first fenced offer.
	push := routePushFrame(next, update.Groups)
	if tc.Sampled() {
		push.SetTrace(tc.Child())
	}
	pushStart := time.Now()
	if pushed := r.srv.PushRoute(push); pushed > 0 {
		obs.Logger().Info("route table pushed", "version", next.Version, "connections", pushed)
	}
	// The broadcast records its own route_push span: receiving sites record a
	// delivery span too, but a site racing its cutover redial may close the
	// old connection before reading the push, and the plan's timeline must
	// still show the broadcast.
	if tc.Sampled() {
		obs.StageSpan(tc, obs.StageRoutePush, pushStart.UnixNano(), time.Now().UnixNano())
	}
	r.table = next.clone()
	deadline := start.Add(r.WaitTimeout)
	for {
		flipped := true
		for _, c := range r.sites {
			if !c.Closed() && c.RouteVersion() < next.Version {
				flipped = false
				break
			}
		}
		if flipped {
			stall := time.Since(start)
			obsCutoverStallNs.Observe(stall.Nanoseconds())
			obs.Logger().Info("reshard cutover complete",
				"version", next.Version, "sites", len(r.sites), "stall_ns", stall.Nanoseconds())
			return stall, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("cluster: reshard cutover to version %d timed out after %v (an idle unclosed site never applied the update?)", next.Version, r.WaitTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// SplitPoint returns the point cutting slot's current range at fraction frac
// of its width (0.5 — the default for out-of-range fracs — halves the load).
func (t RangeTable) SplitPoint(slot int, frac float64) (uint64, error) {
	lo, hi, ok := t.RangeOf(slot)
	if !ok {
		return 0, fmt.Errorf("cluster: slot %d owns no range", slot)
	}
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}
	// hi == 0 means 2^64; uint64 wraparound computes the width exactly except
	// for the full space, which needs the explicit 2^64.
	span := float64(hi - lo)
	if hi == 0 && lo == 0 {
		span = float64(1<<63) * 2
	} else if hi == 0 {
		span = float64(-lo)
	}
	off := uint64(span * frac)
	if off == 0 {
		off = 1
	}
	return lo + off, nil
}
