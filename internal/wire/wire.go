// Package wire turns the simulated protocols into a deployable system: a
// coordinator server and site clients that exchange the same protocol
// messages over TCP instead of through the in-process simulation engines.
//
// The protocol nodes themselves are reused unchanged (anything implementing
// netsim.SiteNode / netsim.CoordinatorNode); this package only supplies the
// transport: framed messages over a long-lived TCP connection per site, a
// site-initiated dialogue of sequence-numbered "batch" frames answered by
// "replies" frames (Algorithm 1/2's dialogue), and a query frame that
// returns the coordinator's current sample. Algorithms that broadcast
// (Algorithm Broadcast) are not supported over this transport, matching the
// concurrent engine's contract.
//
// Every connection speaks one length-prefixed binary encoding (codec.go): it
// opens with a 4-byte preamble that versions the frame layout, and every
// frame is a uint32 length followed by a compact tagged payload. An error
// frame carries a code byte ahead of its text, so a client restores a typed
// refusal (ErrStaleRoute, ErrLeaseLapsed, ErrNotSnapshottable, ErrSampleSize)
// without reading the text.
//
// A batch frame carries up to Options.BatchSize offers and is answered by
// one replies frame covering all of them, so syscalls and encoding overhead
// amortize over the batch (with identical consecutive replies coalesced —
// every coordinator-to-site message is an idempotent state refresh, so
// repeating it within one frame is pure overhead). Up to Options.Window
// batch frames stream before their replies frames come back (cumulative
// acks); a one-frame window is the request/response dialogue. Batching and
// deeper windows delay a site's view of the coordinator threshold, which can
// only cause extra offers, never missed ones — the coordinator's sample is
// unaffected (the same argument that covers the concurrent engine's races).
// See Options.Window and the README's ingest-transport section.
//
// Replication rides the same transport: a primary coordinator pushes its
// full state — one encoded core.State — to warm replicas as "state-frame"
// frames (answered by "state-ack"), and failing-over clients send "promote"
// frames carrying a monotone epoch number. Resharding moves state the same
// way, as "state-handoff" frames filtered to a routing-hash range. State
// frames are handled by any CoordinatorServer whose node implements
// core.Snapshotter; see internal/replica for the group manager and the
// README's replication section for the protocol.
package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// BatchEntry is one offer inside a batched frame, carrying its own slot so a
// batch may span slot boundaries.
type BatchEntry struct {
	Slot int64
	Msg  netsim.Message
}

// Frame is one message of the wire protocol.
type Frame struct {
	Type string
	Site int
	// SampleSize is the hello frame's s: the rank of the bound a bounded
	// site filters with, its own or the one a client's shard sites share
	// (core.NewBoundedInfiniteSite, core.NewSharedInfiniteSite), or 0 for a
	// site without a bound. A coordinator whose node has a sample size
	// refuses a non-zero s that differs from its own with ErrSampleSize.
	SampleSize int
	Slot       int64
	// Seq is the batch sequence number of ingest: each batch frame carries
	// the site's next sequence number and the coordinator echoes it on the
	// covering replies frame, so a site streaming several batches without
	// waiting can match replies to batches and detect reordering.
	Seq uint64
	// Epoch is the replication fencing number. Promote frames carry the epoch
	// the sender wants the receiver to assume; state-frame pushes are stamped
	// with the sending primary's epoch and are rejected by replicas that have
	// been promoted past it; state-ack frames echo the receiver's current
	// epoch so a stale primary (or a probing client) learns the group moved on.
	Epoch uint64
	// Lo and Hi delimit a half-open routing-hash range [Lo, Hi) on the
	// resharding frames: route-update carries the receiver's newly owned
	// range, state-handoff carries the range whose entries the receiver must
	// absorb. Hi == 0 means the range extends to 2^64 (the top of the routing
	// space), so the full space is Lo == 0, Hi == 0. On these frames Seq
	// carries the route-table version, the resharding fencing number: a
	// coordinator that has applied version v ignores route frames stamped
	// below it, exactly like the replication epoch fences state-frames.
	Lo uint64
	Hi uint64
	// State is the payload of the state frames (state-frame and
	// state-handoff): one encoded core.State, kind-tagged and version-fenced
	// by core's own encoding, so the same frame layout replicates or hands
	// off every sampler kind, the sliding-window coordinator's candidate
	// store included.
	State []byte
	// Bounds, Slots, and Groups are the payload of a route-push frame: the
	// full routing table the coordinator wants its connected sites to adopt.
	// Bounds[i] is the inclusive lower bound of range i (half-open ranges in
	// routing-hash space), Slots[i] the shard slot owning it, and Groups the
	// slot-indexed replica-group addresses. Seq carries the table version —
	// the same resharding fencing number route-update frames use — so a site
	// that has already applied a newer table ignores the push.
	Bounds  []uint64
	Slots   []int64
	Groups  [][]string
	Msgs    []netsim.Message
	Batch   []BatchEntry
	Entries []netsim.SampleEntry
	Error   string
	// TraceID, SpanID, and TraceFlags propagate a sampled trace context
	// across the wire (see internal/obs): batch frames carry the ingest
	// trace the site started, replies echo a child context, and the
	// state-frame / route-push / lease-renew control frames thread the same
	// trace through replication and reshard rounds. All three are zero on
	// unsampled traffic, and the carrying frames still encode them (three
	// bytes of zeros).
	TraceID    uint64
	SpanID     uint64
	TraceFlags uint8

	// errCode types an error frame for coordError: one of the err* codes in
	// sync.go, errGeneric by default. Error's text is for people only.
	errCode byte
	// decodeStart/decodeEnd bound the wall-clock window ReadFrame spent
	// decoding this frame. Stamped only while tracing is enabled (and left
	// zero otherwise); the server's serve loop turns a batch frame's into the
	// coord_decode span. Unexported: per-process measurement, never
	// serialized.
	decodeStart, decodeEnd int64
}

// Trace returns the frame's carried trace context (zero when unsampled).
func (f *Frame) Trace() obs.TraceContext {
	return obs.TraceContext{TraceID: f.TraceID, SpanID: f.SpanID, Flags: f.TraceFlags}
}

// SetTrace stamps the frame with the given trace context.
func (f *Frame) SetTrace(tc obs.TraceContext) {
	f.TraceID, f.SpanID, f.TraceFlags = tc.TraceID, tc.SpanID, tc.Flags
}

// Frame types.
const (
	FrameHello   = "hello"   // site -> coordinator: announce site id and sample size
	FrameBatch   = "batch"   // site -> coordinator: protocol messages
	FrameReplies = "replies" // coordinator -> site: the replies to one batch
	FrameQuery   = "query"   // client -> coordinator: request the sample
	FrameSample  = "sample"  // coordinator -> client: the current sample
	FrameError   = "error"   // coordinator -> client: refusal or protocol violation
	// Replication frames (see internal/replica).
	FrameStateAck = "state-ack" // replica -> primary/prober: applied (or current) epoch and sync seq
	FramePromote  = "promote"   // client -> replica: assume this epoch (become primary)
	// Resharding frames (see internal/cluster's Resharder).
	FrameRouteUpdate = "route-update" // reshard driver -> coordinator: own [Lo,Hi) as of route version Seq; prune the rest
	// State frames (the unified Snapshot/Restore API): each carries one
	// encoded core.State, the only form in which state moves between nodes.
	FrameState        = "state-frame"   // primary/prober -> node: full sampler state (sync push or snapshot reply)
	FrameStateHandoff = "state-handoff" // reshard driver -> coordinator: absorb the carried state filtered to [Lo,Hi)
	FrameSnapshot     = "snapshot"      // client -> coordinator: request the full state; answered by a state-frame
	// Self-healing control-plane frames (see internal/replica for leases and
	// internal/cluster's Resharder for pushes).
	FrameRoutePush  = "route-push"  // coordinator -> site: adopt this routing table (version Seq)
	FrameLeaseRenew = "lease-renew" // replication driver -> primary: hold a lease of Seq nanoseconds at Epoch
	FrameLeaseAck   = "lease-ack"   // primary -> driver: the epoch the renewal landed on (or fenced against)
)

// CoordinatorServer exposes a coordinator node over TCP.
type CoordinatorServer struct {
	mu    sync.Mutex
	node  netsim.CoordinatorNode
	ln    net.Listener
	wg    sync.WaitGroup
	conns map[io.Closer]struct{} // live connections, force-closed on Close
	stats struct {
		offers  int
		replies int
		queries int
	}
	// Replication state: the highest epoch this server has been promoted to
	// (or received a state-frame at), and the sequence number of the last
	// applied state-frame within that epoch. State-frames from lower epochs
	// are fenced off — a deposed primary cannot overwrite a promoted replica
	// — and lower sequence numbers within the epoch are ignored, so
	// re-deliveries and reordering are harmless (application is idempotent
	// anyway: every frame carries the full state).
	epoch    uint64
	syncSeq  uint64
	synced   bool  // at least one state-frame applied in the current epoch
	promoted bool  // a promote frame has been accepted (role visibility)
	lastSlot int64 // highest slot seen across offers (state-frame slot metadata)
	closing  bool  // Close has begun; reject freshly accepted connections
	// Resharding state: the route-table version this server has applied (a
	// monotone ratchet, like epoch — route frames stamped below it are
	// fenced off), the routing-hash function used to filter sample entries
	// by range (set by SetRouteHash; route frames are rejected without it),
	// and a count of state mutations applied outside the offer path
	// (state-frames, handoffs, prunes) so replication change detection sees
	// sample changes that offer counts alone would miss.
	routeVer  uint64
	routeHash func(key string) uint64
	mutations int
	// Strict-routing state: once armed (by the reshard driver after a plan's
	// restrict phase), offers for keys outside the owned range [routeLo,
	// routeHi) are NACKed with a stale-route error instead of silently
	// accepted — a stale external site's strays bounce back for rerouting
	// rather than landing on a shard that will prune them at the next plan.
	routeLo, routeHi uint64
	routeStrict      bool
	// Lease-based fencing state. A server that has never been granted a
	// lease serves unconditionally (standalone / unreplicated mode). Once the
	// replication driver grants one (a lease-renew frame), the server only
	// accepts offers while the lease is live: a primary partitioned from its
	// group stops accepting acked-but-doomed offers within one lease interval
	// instead of at its next fenced sync. An accepted promote frame re-grants
	// the lease — promotion is the group's explicit fencing decision, and the
	// promoted member must serve immediately.
	leaseArmed    bool
	leaseInterval int64 // nanoseconds, from the last accepted renewal
	leaseUntil    int64 // UnixNano expiry of the current lease
	leaseLapsed   bool  // edge detector: first fenced offer after expiry logs once
	// Per-connection route-push mailboxes, registered at hello (only site
	// connections receive pushes; sync and query dialogues would misparse
	// them). Each is drained by a push writer that PushRoute starts at the
	// connection's first push and that shares the connection's write side
	// with its serve loop.
	pushConns map[*pushBox]struct{}
	// Per-shard observability hooks, attached by the replica/cluster layer
	// (SetShardObs) once the server's slot identity is known: offers counts
	// dispatched offer messages, churn counts reply messages (each reply is
	// a sample-affecting state refresh — the load-watcher's churn signal).
	// Nil-checked on the dispatch hot path; nil means unattached.
	obsOffers *obs.Counter
	obsChurn  *obs.Counter
	// promoteHook, when set, fires after this server accepts a promote
	// frame — the replica layer's promotion durability barrier.
	promoteHook func(epoch uint64)
	// lastTrace stashes the trace context of the most recent sampled ingest
	// batch. The replication driver consumes it (TakeTrace) when it opens
	// the next sync round, so a sampled ingest trace continues through the
	// replica plane instead of ending at the coordinator's ack.
	lastTrace obs.TraceContext
}

// NewCoordinatorServer wraps the given coordinator node.
func NewCoordinatorServer(node netsim.CoordinatorNode) *CoordinatorServer {
	return &CoordinatorServer{
		node:      node,
		conns:     make(map[io.Closer]struct{}),
		pushConns: make(map[*pushBox]struct{}),
	}
}

// Listen starts accepting site connections on addr (e.g. "127.0.0.1:0").
// It returns the bound address. Serve loops run in background goroutines
// until Close is called.
func (s *CoordinatorServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: listen: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the listener, force-closes every live connection, and waits
// for connection handlers to finish. Force-closing matters for failover:
// killing a primary must surface promptly as read/write errors on its
// clients, not wait for them to speak first.
func (s *CoordinatorServer) Close() error {
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.mu.Lock()
	s.closing = true
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Epoch returns the server's current replication epoch (the highest promote
// or state-frame epoch it has accepted).
func (s *CoordinatorServer) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Promoted reports whether this server has accepted a promote frame.
func (s *CoordinatorServer) Promoted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoted
}

// SetRouteHash installs the cluster's routing-hash function (the rehashed
// digest the ShardRouter partitions on). It must be set before the server can
// apply route-update or state-handoff frames: both filter sample entries by
// their routing hash, which only the shared hash function can compute.
func (s *CoordinatorServer) SetRouteHash(fn func(key string) uint64) {
	s.mu.Lock()
	s.routeHash = fn
	s.mu.Unlock()
}

// SetPromoteHook installs a callback fired (on its own goroutine, after the
// ack is on the wire) whenever this server accepts a promote frame — it has
// just become its group's primary at the given epoch. The replica layer uses
// it as a durability barrier: a fresh primary's state is spooled to disk
// immediately, not a spool interval later.
func (s *CoordinatorServer) SetPromoteHook(fn func(epoch uint64)) {
	s.mu.Lock()
	s.promoteHook = fn
	s.mu.Unlock()
}

// SetShardObs attaches the per-shard offer and churn counters this server
// increments on its dispatch path. The cluster/replica layers call it with
// counters named for the shard slot (`dds_shard_offers_total{slot="N"}`), so
// scraped rates are per shard — the load-watcher inputs. Either counter may
// be nil.
func (s *CoordinatorServer) SetShardObs(offers, churn *obs.Counter) {
	s.mu.Lock()
	s.obsOffers = offers
	s.obsChurn = churn
	s.mu.Unlock()
}

// TakeTrace returns — and clears — the trace context of the most recent
// sampled ingest batch. The replication driver calls it when opening a sync
// round so the round's spans join the ingest trace that made the state
// dirty; a zero return means no sampled batch arrived since the last take.
func (s *CoordinatorServer) TakeTrace() obs.TraceContext {
	s.mu.Lock()
	defer s.mu.Unlock()
	tc := s.lastTrace
	s.lastTrace = obs.TraceContext{}
	return tc
}

// RouteVersion returns the highest route-table version this server has
// applied (0 if it has never seen a route frame).
func (s *CoordinatorServer) RouteVersion() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.routeVer
}

// RestrictRoute arms strict routing: from now on, offers for keys whose
// routing hash falls outside the server's owned range (as assigned by the
// last applied route-update frame) are NACKed with a stale-route error. The
// reshard driver arms it after a plan's restrict phase, when every
// registered site has flipped — anything still offering out-of-range keys
// is a stale external site whose strays would otherwise be silently pruned
// by the next plan. Requires a routing hash (SetRouteHash).
func (s *CoordinatorServer) RestrictRoute() {
	s.mu.Lock()
	s.routeStrict = true
	s.mu.Unlock()
}

// LeaseValid reports whether this server holds a live lease. A server that
// has never been granted one reports true: leasing is armed by the first
// lease-renew frame, so standalone deployments are unaffected.
func (s *CoordinatorServer) LeaseValid() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.leaseArmed || nowNanos() <= s.leaseUntil
}

// PushRoute broadcasts a route-push frame to every connected site (every
// connection that has completed the hello handshake), returning how many
// mailboxes accepted it. Delivery is best-effort — a site whose mailbox is
// full misses this push and recovers through the stale-route NACK path —
// and the frame's version fence makes re-delivery harmless. It never blocks:
// a connection's push writer, started here at its first push, writes the
// frame as soon as the connection's write side is free, even while the site
// sends nothing.
func (s *CoordinatorServer) PushRoute(f *Frame) int {
	n := 0
	s.mu.Lock()
	for box := range s.pushConns {
		g := copyFrame(f)
		select {
		case box.mail <- &g:
			n++
			if !box.started {
				box.started = true
				box.wg.Add(1)
				go box.write()
			}
		default: // mailbox full; the fence makes skipping safe
		}
	}
	s.mu.Unlock()
	if n > 0 {
		obsRoutePushes.Add(uint64(n))
	}
	return n
}

// pushMailbox is how many route pushes wait for a site connection's push
// writer before PushRoute skips the connection. A reshard pushes once per
// table, and a site that misses a push recovers through the stale-route
// NACK, so a few pushes of slack are enough.
const pushMailbox = 8

// pushBox is a site connection's route-push mailbox and the write side its
// push writer shares with the connection's serve loop: both write and flush
// through the box, under mu, so frames never interleave, and a push leaves
// with whatever replies the loop has buffered ahead of it.
type pushBox struct {
	frameConn
	mu sync.Mutex
	// mail is sent to by PushRoute and closed by the serve loop once the box
	// is out of pushConns, both under CoordinatorServer.mu.
	mail    chan *Frame
	started bool // the push writer runs; guarded by CoordinatorServer.mu
	wg      sync.WaitGroup
}

func (b *pushBox) WriteFrame(f *Frame) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.frameConn.WriteFrame(f)
}

func (b *pushBox) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.frameConn.Flush()
}

// write is the push writer: it writes and flushes each mailed frame until the
// serve loop closes the mailbox or a write fails.
func (b *pushBox) write() {
	defer b.wg.Done()
	for f := range b.mail {
		b.mu.Lock()
		err := writeFlush(b.frameConn, f)
		b.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// leaseFenceLocked checks the lease fence of the offer path, returning the
// NACK text for a rejected frame ("" accepts). Callers hold s.mu. The
// lease-lapse edge is detected once per lapse; the caller emits the counter
// and event after unlocking via the returned lapsed flag.
func (s *CoordinatorServer) leaseFenceLocked() (nack string, lapsed bool) {
	if !s.leaseArmed || nowNanos() <= s.leaseUntil {
		return "", false
	}
	if !s.leaseLapsed {
		s.leaseLapsed = true
		lapsed = true
	}
	return "primary lease lapsed: offers fenced pending renewal or promotion", lapsed
}

// routeFenceLocked checks the strict-routing fence for one offered key,
// returning the NACK text for an out-of-range offer ("" accepts). Callers
// hold s.mu. It is a no-op until RestrictRoute arms it.
func (s *CoordinatorServer) routeFenceLocked(key string) string {
	if s.routeStrict && s.routeHash != nil && !routeInRange(s.routeHash(key), s.routeLo, s.routeHi) {
		return "stale route: this shard no longer owns the key's range"
	}
	return ""
}

// routeInRange reports whether routing hash x falls in [lo, hi), where
// hi == 0 means the range extends to 2^64.
func routeInRange(x, lo, hi uint64) bool {
	return x >= lo && (hi == 0 || x < hi)
}

// track registers a live connection so Close can force it shut. It returns
// false when the server is already closing — a connection accepted in the
// race window between the listener closing and the force-close pass must be
// dropped, or a "killed" server would keep serving it (and Close would wait
// on it forever).
func (s *CoordinatorServer) track(conn io.Closer) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *CoordinatorServer) untrack(conn io.Closer) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Stats returns the number of offers received, reply messages sent, and
// queries answered.
func (s *CoordinatorServer) Stats() (offers, replies, queries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.offers, s.stats.replies, s.stats.queries
}

// Sample returns the coordinator's current sample (thread-safe).
func (s *CoordinatorServer) Sample() []netsim.SampleEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node.Sample()
}

// Thresholder is implemented by coordinator nodes that expose their current
// threshold u (core.InfiniteCoordinator and sliding.Coordinator do), so
// wrappers and instruments can read u without knowing the sampler kind.
type Thresholder interface {
	Threshold() float64
}

// SnapshotSync atomically captures the node's full state as a core.State —
// the replication capture — together with the highest slot seen in ingest
// and an activity counter: offers dispatched plus mutations applied through
// state, handoff, and route frames. The counter lets a replication syncer
// skip pushing frames while the primary's state is unchanged. (Mutations
// count because a resharding prune or handoff changes the sample without any
// offer arriving; replicas must still learn of it.) ok is false when the
// node does not implement core.Snapshotter; such nodes only serve
// unreplicated groups, so callers skip them.
func (s *CoordinatorServer) SnapshotSync() (st core.State, ok bool, slot int64, activity int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn, isSnap := s.node.(core.Snapshotter)
	if !isSnap {
		return core.State{}, false, 0, 0
	}
	return sn.Snapshot(), true, s.lastSlot, s.stats.offers + s.mutations
}

// Activity returns SnapshotSync's activity counter without capturing any
// state, so a syncer can tell an idle primary before paying for a snapshot.
func (s *CoordinatorServer) Activity() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.offers + s.mutations
}

func (s *CoordinatorServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// writeFlush writes one frame and pushes it to the wire immediately — the
// request/response paths, where the peer is waiting for it.
func writeFlush(fc frameConn, f *Frame) error {
	if err := fc.WriteFrame(f); err != nil {
		return err
	}
	return fc.Flush()
}

// sampleSizer is a node with a sample size s: a bounded site announces its s
// at hello, and a coordinator node with one checks it.
type sampleSizer interface{ SampleSize() int }

// helloRefusal returns the error frame that refuses a site's hello, or nil to
// accept it. A bounded site drops every arrival at or above the s-th
// smallest hash offered through its bound, so one whose s is below its
// coordinator's would drop keys the sample needs: a coordinator with a
// sample size refuses a hello whose non-zero s differs from its own. Sites
// without the bound announce 0, and nodes without a sample size (the sliding
// coordinators) accept any.
func (s *CoordinatorServer) helloRefusal(f *Frame) *Frame {
	sz, ok := s.node.(sampleSizer)
	if !ok || f.SampleSize == 0 || f.SampleSize == sz.SampleSize() {
		return nil
	}
	return &Frame{Type: FrameError, errCode: errSampleSize,
		Error: fmt.Sprintf("hello: site sample size %d differs from the coordinator's %d", f.SampleSize, sz.SampleSize())}
}

// handle serves one site (or query client) TCP connection.
func (s *CoordinatorServer) handle(conn net.Conn) {
	if !s.track(conn) {
		conn.Close() // raced the server's Close; a dead server serves no one
		return
	}
	defer s.untrack(conn)
	defer conn.Close()
	fc, err := serverConn(conn)
	if err != nil {
		return // unreadable preamble; drop the connection
	}
	s.serve(fc, conn)
}

// serve runs one connection over any frameConn backend (TCP or in-memory)
// on one goroutine: it reads a frame into one reused Frame, dispatches it,
// and writes its reply into the connection's write buffer. It flushes only
// once no whole frame waits to be read, so a site streaming a window of batch
// frames gets all their replies frames in one write: the coordinator's half
// of the site's Nagle rule (see pipeline). closeConn force-closes the
// underlying transport, which fails a push writer's pending write.
func (s *CoordinatorServer) serve(fc frameConn, closeConn io.Closer) {
	siteID := -1

	// w is the connection's write side: fc until hello registers the site's
	// route-push mailbox, then the mailbox, whose push writer shares it.
	// Sync and query dialogues never send hello, so they never see a push
	// frame mid-exchange.
	var (
		w   frameConn = fc
		box *pushBox
	)
	defer func() {
		if box != nil {
			s.mu.Lock()
			delete(s.pushConns, box)
			close(box.mail)
			s.mu.Unlock()
		}
		closeConn.Close() // fails a push writer's pending write
		if box != nil {
			box.wg.Wait()
		}
	}()

	// Per-connection scratch, reused across frames so the steady-state ingest
	// loop performs no per-frame allocations beyond decoded keys: one read
	// frame, one write frame, one reply accumulator, one coordinator outbox.
	var (
		err     error
		f, resp Frame
		replies []netsim.Message
		out     netsim.Outbox
	)
	// Replies frames carry cumulative acks: Seq s acknowledges every batch up
	// to and including s. When a client is running ahead (its next frame
	// already waits to be read) and a batch produced no replies, the ack is
	// deferred and folded into the next one, so a quiet ingest stream costs
	// the coordinator roughly one reply frame per drained window instead of
	// one per batch. ackDeferred/deferredSeq track the deferral; any
	// non-batch frame forces the pending ack out first to preserve ordering
	// for clients that interleave.
	ackDeferred := false
	var deferredSeq uint64
	flushAck := func() error {
		if !ackDeferred {
			return nil
		}
		ackDeferred = false
		ack := Frame{Type: FrameReplies, Seq: deferredSeq}
		return w.WriteFrame(&ack)
	}
	for {
		if err := fc.ReadFrame(&f); err != nil {
			return // connection closed or garbage; drop the site
		}
		switch f.Type {
		case FrameHello:
			if ef := s.helloRefusal(&f); ef != nil {
				_ = writeFlush(w, ef)
				return
			}
			siteID = f.Site
			if box == nil {
				b := &pushBox{frameConn: fc, mail: make(chan *Frame, pushMailbox)}
				s.mu.Lock()
				if !s.closing {
					s.pushConns[b] = struct{}{}
					box, w = b, b
				}
				s.mu.Unlock()
			}
			// Hello produces no response frame of its own, so push any
			// deferred ack out now — every non-batch frame must, or a
			// conforming peer that interleaves one could wait forever.
			if err := flushAck(); err != nil {
				return
			}
		case FrameBatch:
			if siteID < 0 {
				_ = writeFlush(w, &Frame{Type: FrameError, Error: "batch before hello"})
				return
			}
			// One lock acquisition covers the whole batch: this is the ingest
			// hot path, and per-message locking would make the coordinator's
			// serial section the pipeline's ceiling.
			tc := f.Trace()
			var stageT int64 // rolling stage boundary (sampled batches only)
			if tc.Sampled() {
				obs.StageSpan(tc, obs.StageCoordDecode, f.decodeStart, f.decodeEnd)
				stageT = nowNanos()
			}
			replies = replies[:0]
			s.mu.Lock()
			if tc.Sampled() {
				now := nowNanos()
				obs.StageSpan(tc, obs.StageCoordLock, stageT, now)
				stageT = now
			}
			// Fence the whole frame before applying any of it: a NACKed batch
			// must stay all-or-nothing so the client's retained copy replays
			// cleanly. The lease check is one comparison; the per-key range
			// check only runs once strict routing is armed.
			nack, lapsed := s.leaseFenceLocked()
			leaseFenced := nack != ""
			if !leaseFenced && s.routeStrict {
				for i := range f.Batch {
					if nack = s.routeFenceLocked(f.Batch[i].Msg.Key); nack != "" {
						break
					}
				}
			}
			if nack != "" {
				s.mu.Unlock()
				batchFenceObs(leaseFenced, lapsed, nack)
				code := errStaleRoute
				if leaseFenced {
					code = errLeaseLapsed
				}
				_ = writeFlush(w, &Frame{Type: FrameError, Error: nack, errCode: code})
				return
			}
			for i := range f.Batch {
				// Stamp the sender in place: the decoded batch is scratch,
				// and copying each ~60-byte message twice per offer would
				// show up on the ingest hot path.
				entry := &f.Batch[i]
				entry.Msg.From = siteID
				replies, err = s.dispatchLocked(entry.Msg, entry.Slot, siteID, &out, replies)
				if err != nil {
					break
				}
			}
			if tc.Sampled() {
				s.lastTrace = tc
			}
			s.mu.Unlock()
			if tc.Sampled() {
				obs.StageSpan(tc, obs.StageCoordOffer, stageT, nowNanos())
			}
			if err != nil {
				_ = writeFlush(w, &Frame{Type: FrameError, Error: err.Error()})
				return
			}
			if len(replies) == 0 && inputWaiting(fc) {
				// The client is ahead (its next frame already waits) and has
				// nothing to learn from this batch: fold the ack into a later
				// replies frame.
				ackDeferred, deferredSeq = true, f.Seq
				continue
			}
			// Echo the batch's sequence number; this frame cumulatively acks
			// any deferred batches before it.
			ackDeferred = false
			resp = Frame{Type: FrameReplies, Seq: f.Seq, Msgs: replies}
			if tc.Sampled() {
				resp.SetTrace(tc.Child())
			}
			if err := w.WriteFrame(&resp); err != nil {
				return
			}
		case FrameQuery:
			s.mu.Lock()
			entries := s.node.Sample()
			s.stats.queries++
			s.mu.Unlock()
			if err := flushAck(); err != nil {
				return
			}
			resp = Frame{Type: FrameSample, Entries: entries}
			if err := w.WriteFrame(&resp); err != nil {
				return
			}
		case FramePromote:
			// Epoch-numbered promotion: assume the requested epoch if it is
			// ahead of ours, and echo the resulting epoch either way. The
			// frame is idempotent, so every site of a cluster can promote the
			// same replica independently and they all converge on one epoch.
			s.mu.Lock()
			accepted := f.Epoch > s.epoch
			promoteHook := s.promoteHook
			if accepted {
				s.epoch, s.syncSeq, s.synced = f.Epoch, 0, false
				s.promoted = true
				// Promotion is the group's explicit decision that this member
				// now leads: re-grant its lease so a freshly promoted replica
				// is immediately offerable rather than fenced until the first
				// renewal round reaches it.
				if s.leaseArmed {
					s.leaseUntil = nowNanos() + s.leaseInterval
					s.leaseLapsed = false
				}
			}
			resp = Frame{Type: FrameStateAck, Epoch: s.epoch, Seq: s.syncSeq}
			s.mu.Unlock()
			if accepted {
				obsPromotions.Inc()
				obs.Logger().Info("promotion accepted", "epoch", f.Epoch)
				if promoteHook != nil {
					go promoteHook(f.Epoch)
				}
			}
			if err := flushAck(); err != nil {
				return
			}
			if err := w.WriteFrame(&resp); err != nil {
				return
			}
		case FrameLeaseRenew:
			// The replication driver renews this primary's lease after a
			// quorum of its group acknowledged the latest sync round. The
			// first renewal arms lease fencing (standalone coordinators never
			// see one and serve unconditionally); f.Seq carries the lease
			// interval in nanoseconds. A renewal stamped with a different
			// epoch comes from a driver that has been lapped by a promotion
			// and is fenced — the ack's epoch tells it so.
			s.mu.Lock()
			fenced := f.Epoch != s.epoch
			if !fenced {
				s.leaseArmed = true
				s.leaseInterval = int64(f.Seq)
				s.leaseUntil = nowNanos() + s.leaseInterval
				s.leaseLapsed = false
			}
			resp = Frame{Type: FrameLeaseAck, Epoch: s.epoch, Seq: s.syncSeq}
			s.mu.Unlock()
			if fenced {
				obsEpochFences.Inc()
				fenceEvent("epoch", f.Type, f.Epoch, resp.Epoch)
			}
			if err := flushAck(); err != nil {
				return
			}
			if err := w.WriteFrame(&resp); err != nil {
				return
			}
		case FrameRouteUpdate:
			// A reshard driver assigns this coordinator its new hash-prefix
			// range: as of route version Seq it owns [Lo, Hi), and every
			// sample entry outside that range has been (or is being) handed
			// to another shard, so it is dropped here — the "filtered
			// re-application" that keeps each successor of a split exactly
			// the keys hashing into its new range. The version ratchets
			// monotonically; a frame stamped at or below the applied version
			// is fenced off (the ack's Seq tells the sender where the server
			// is), so a delayed route-update can never resurrect a
			// handed-off range. The prune runs through the node's full state,
			// candidate store included.
			sn, ok := s.node.(core.Snapshotter)
			if !ok {
				_ = writeFlush(w, notSnapshottableFrame(f.Type))
				return
			}
			s.mu.Lock()
			if s.routeHash == nil {
				s.mu.Unlock()
				_ = writeFlush(w, &Frame{Type: FrameError, Error: "route-update: no routing hash configured on this coordinator"})
				return
			}
			fenced := f.Seq <= s.routeVer
			if !fenced {
				s.routeVer = f.Seq
				// Remember the owned range: if RestrictRoute arms strict
				// routing later (the reshard driver does so once every
				// registered site has flipped), offers outside it are NACKed
				// instead of silently landing on a shard that will prune them.
				s.routeLo, s.routeHi = f.Lo, f.Hi
				keep := func(key string) bool { return routeInRange(s.routeHash(key), f.Lo, f.Hi) }
				if err := sn.Restore(core.FilterState(sn.Snapshot(), keep)); err != nil {
					s.mu.Unlock()
					_ = writeFlush(w, &Frame{Type: FrameError, Error: "route-update: " + err.Error()})
					return
				}
				s.mutations++
			}
			resp = Frame{Type: FrameStateAck, Epoch: s.epoch, Seq: s.routeVer}
			s.mu.Unlock()
			if fenced {
				obsRouteFences.Inc()
				fenceEvent("route", f.Type, f.Seq, resp.Seq)
			}
			if err := flushAck(); err != nil {
				return
			}
			if err := w.WriteFrame(&resp); err != nil {
				return
			}
		case FrameState:
			// A primary is pushing its full state: one encoded core.State, so
			// any snapshot-capable sampler — sliding-window candidate stores
			// included — replicates through the same frame. Fencing first: a
			// frame stamped with an epoch below ours comes from a deposed
			// primary and must not overwrite promoted state; the ack's epoch
			// tells it so. Within the current epoch, only sequence numbers at
			// or above the last applied one are applied (re-application is
			// idempotent — the frame carries the whole state — but an old
			// frame must not roll a newer state back).
			sn, ok := s.node.(core.Snapshotter)
			if !ok {
				_ = writeFlush(w, notSnapshottableFrame(f.Type))
				return
			}
			st, derr := core.DecodeState(f.State)
			if derr != nil {
				_ = writeFlush(w, &Frame{Type: FrameError, Error: "state-frame: " + derr.Error()})
				return
			}
			tc := f.Trace()
			var applyStart int64
			if tc.Sampled() {
				applyStart = nowNanos()
			}
			s.mu.Lock()
			if f.Epoch > s.epoch {
				s.epoch, s.syncSeq, s.synced = f.Epoch, 0, false
			}
			fenced := f.Epoch < s.epoch
			if !fenced && (!s.synced || f.Seq >= s.syncSeq) {
				if err := sn.Restore(st); err != nil {
					s.mu.Unlock()
					_ = writeFlush(w, &Frame{Type: FrameError, Error: "state-frame: " + err.Error()})
					return
				}
				s.syncSeq, s.synced = f.Seq, true
				s.mutations++
				if f.Slot > s.lastSlot {
					s.lastSlot = f.Slot
				}
			}
			resp = Frame{Type: FrameStateAck, Epoch: s.epoch, Seq: s.syncSeq}
			s.mu.Unlock()
			if tc.Sampled() && !fenced {
				obs.StageSpan(tc, obs.StageReplicaApply, applyStart, nowNanos())
			}
			if fenced {
				obsEpochFences.Inc()
				fenceEvent("epoch", f.Type, f.Epoch, resp.Epoch)
			}
			if err := flushAck(); err != nil {
				return
			}
			if err := w.WriteFrame(&resp); err != nil {
				return
			}
		case FrameStateHandoff:
			// A reshard driver hands this coordinator a donor shard's encoded
			// state. The sections filtered to [Lo, Hi) merge into the node's
			// own snapshot and the merged state is restored, so each sampler
			// kind applies its own union semantics (bottom-s of the union,
			// per-copy minimum, non-dominated tuple set) with whatever this
			// shard has ingested since the cutover; everything else in the
			// frame belongs to some other successor and is ignored.
			// Application is idempotent, so the warm handoff before the
			// cutover and the settling handoff after it can carry
			// overlapping snapshots safely. Handoffs stamped below the
			// applied route version are fenced: the range has since moved
			// on, and absorbing a stale snapshot could resurrect keys this
			// shard no longer owns.
			sn, ok := s.node.(core.Snapshotter)
			if !ok {
				_ = writeFlush(w, notSnapshottableFrame(f.Type))
				return
			}
			incoming, derr := core.DecodeState(f.State)
			if derr != nil {
				_ = writeFlush(w, &Frame{Type: FrameError, Error: "state-handoff: " + derr.Error()})
				return
			}
			s.mu.Lock()
			if s.routeHash == nil {
				s.mu.Unlock()
				_ = writeFlush(w, &Frame{Type: FrameError, Error: "state-handoff: no routing hash configured on this coordinator"})
				return
			}
			fenced := f.Seq < s.routeVer
			if !fenced {
				keep := func(key string) bool { return routeInRange(s.routeHash(key), f.Lo, f.Hi) }
				merged, merr := core.MergeStates(sn.Snapshot(), core.FilterState(incoming, keep))
				if merr == nil {
					merr = sn.Restore(merged)
				}
				if merr != nil {
					s.mu.Unlock()
					_ = writeFlush(w, &Frame{Type: FrameError, Error: "state-handoff: " + merr.Error()})
					return
				}
				s.mutations++
			}
			resp = Frame{Type: FrameStateAck, Epoch: s.epoch, Seq: s.routeVer}
			s.mu.Unlock()
			if fenced {
				obsRouteFences.Inc()
				fenceEvent("route", f.Type, f.Seq, resp.Seq)
			}
			if err := flushAck(); err != nil {
				return
			}
			if err := w.WriteFrame(&resp); err != nil {
				return
			}
		case FrameSnapshot:
			// Full-state read: the snapshot-and-ship half of replication,
			// handoff, and backup. The reply is a state-frame stamped with
			// the server's epoch, sync sequence, and slot clock.
			sn, ok := s.node.(core.Snapshotter)
			if !ok {
				_ = writeFlush(w, notSnapshottableFrame(f.Type))
				return
			}
			s.mu.Lock()
			encoded := core.EncodeState(sn.Snapshot())
			s.stats.queries++
			resp = Frame{Type: FrameState, Epoch: s.epoch, Seq: s.syncSeq, Slot: s.lastSlot, State: encoded}
			s.mu.Unlock()
			if err := flushAck(); err != nil {
				return
			}
			if err := w.WriteFrame(&resp); err != nil {
				return
			}
		default:
			_ = writeFlush(w, &Frame{Type: FrameError, Error: "unknown frame type " + f.Type})
			return
		}
		if !inputWaiting(fc) {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// dispatchLocked runs the coordinator node on one message and appends the
// replies addressed to the sending site onto replies, reusing the caller's
// outbox. Callers hold s.mu.
//
// Replies within one replies frame are thinned before encode:
//
//   - Identical consecutive replies are coalesced: every coordinator-to-site
//     message in the supported protocols is an idempotent state refresh, so a
//     batch of 64 offers that all draw the same "u is still 0.01" answer
//     ships it once instead of 64 times.
//   - Consecutive threshold refreshes for the same sampler copy are
//     deduplicated down to the newest one even when they differ: u only ever
//     tightens, the site's OnMessage overwrites its whole view with the
//     received value, and pruning the duplicate memo against the final
//     (smallest) u removes a superset of what the intermediate values would
//     have removed — so applying only the last refresh of a run yields the
//     identical site state. A batch whose every offer lowers u thus ships
//     one threshold instead of one per offer. (Copies are kept distinct:
//     sampling-with-replacement maintains one threshold per copy, and a
//     Copy=1 refresh must not be swallowed by a Copy=2 one.)
//
// Both rules cut reply-path bytes and encode/decode work on flooded links
// without changing any site's resulting state.
func (s *CoordinatorServer) dispatchLocked(msg netsim.Message, slot int64, siteID int, out *netsim.Outbox, replies []netsim.Message) ([]netsim.Message, error) {
	out.Reset()
	s.node.OnMessage(msg, slot, out)
	s.stats.offers++
	if s.obsOffers != nil {
		s.obsOffers.Inc()
	}
	if slot > s.lastSlot {
		s.lastSlot = slot
	}
	n := 0
	for _, env := range out.Envelopes() {
		if env.Broadcast || env.To != siteID {
			return replies, errors.New("wire: coordinator tried to send to a site other than the requester (broadcasting algorithms are not supported over TCP)")
		}
		reply := env.Msg
		reply.From = netsim.CoordinatorID
		if len(replies) > 0 {
			last := &replies[len(replies)-1]
			if *last == reply {
				continue // identical consecutive refresh; idempotent
			}
			if reply.Kind == netsim.KindThreshold && last.Kind == netsim.KindThreshold && last.Copy == reply.Copy {
				*last = reply // only the newest refresh of a run matters
				continue
			}
		}
		replies = append(replies, reply)
		n++
	}
	s.stats.replies += n
	if s.obsChurn != nil && n > 0 {
		s.obsChurn.Add(uint64(n))
	}
	return replies, nil
}

// Options configures a site client's transport.
type Options struct {
	// Codec names the wire encoding. CodecBinary, the zero value, is the
	// only one; the field stays while the benchmark module sets it.
	Codec Codec
	// BatchSize is the most coordinator-bound messages one batch frame
	// carries; 0 or 1 ships every offer in its own frame. EndSlot and Close
	// always flush the buffer, so batching never holds a message past a slot
	// boundary.
	BatchSize int
	// Window is the credit window: up to Window batch frames may be in
	// flight before their replies frames have come back. A reader goroutine
	// matches replies to batches by sequence number and queues them for the
	// caller's goroutine, which feeds them into the site node at its next
	// call. A full window blocks the writer, bounding memory, and
	// Flush/EndSlot/Close drain it completely, so slot boundaries and
	// shutdown stay exact. 0 or 1 keeps one frame in flight: each frame is
	// flushed and acknowledged before the next ships, which is the
	// request/response dialogue. At any depth a frame that ships while no
	// flushed frame awaits its ack leaves at once; frames that ship behind
	// frames in flight leave together once their ack returns.
	// DefaultWindow is a good starting point on localhost; see the README
	// for tuning guidance.
	Window int
	// OnRoutePush, when set, receives server-initiated route-push frames: the
	// coordinator broadcasting a new routing table mid-reshard so connected
	// sites flip live instead of discovering the move on their next NACK. The
	// frame is a deep copy the callback may retain. It is invoked from the
	// connection's reader goroutine as soon as the push arrives, so
	// implementations must be quick and must not call back into the
	// SiteClient.
	OnRoutePush func(*Frame)
	// RetryMax and RetryBase set the recovery policy of the failover layers
	// built on this transport (cluster.SiteClient, dds.Open): at most
	// RetryMax retries per operation against a lease-fenced primary, backing
	// off exponentially from RetryBase with jitter before each. Zero values
	// take DefaultRetryMax / DefaultRetryBase; RetryMax < 0 disables lease
	// waiting (the first lapse triggers promotion of the next member).
	RetryMax  int
	RetryBase time.Duration
}

// Default retry policy: five waits starting at 5ms roughly double to an
// ~150ms total budget — long enough for a transient sync-plane hiccup to
// heal (one to two default lease intervals), short enough that a genuinely
// lost quorum fails over before ingest stalls noticeably.
const (
	DefaultRetryMax  = 5
	DefaultRetryBase = 5 * time.Millisecond
)

// DefaultWindow is the credit window used by callers that pipeline without
// choosing a width: deep enough to hide a localhost round trip behind
// encoding, shallow enough that a stalled coordinator blocks the writer after
// a few batches.
const DefaultWindow = 8

// SiteClient connects one site node to a remote coordinator.
//
// A SiteClient is not safe for concurrent use: Observe/EndSlot/Flush/Close
// must be called from one goroutine (or externally serialized), exactly like
// the site node it wraps. The client owns one internal reader goroutine,
// which never touches the site node: it queues the coordinator's replies,
// and the caller's goroutine applies them at its next call. mu guards only
// the state the reader shares with the caller.
type SiteClient struct {
	node netsim.SiteNode
	conn io.Closer
	fc   frameConn
	opts Options // BatchSize and Window at least 1

	dnode netsim.DigestSite // node's digest entry point; nil when it has none

	mu      sync.Mutex   // guards the pipeline state the reader shares, and the counters
	pending []BatchEntry // buffered offers awaiting a batch flush; the caller's alone
	// batchStartNs is when the current pending buffer got its first offer,
	// stamped only while tracing is enabled (zero otherwise): the site_batch
	// span of a sampled batch covers assembly, from first buffered offer to
	// ship. Reset on every ship.
	batchStartNs int64

	scratch netsim.Outbox // reusable outbox for node callbacks
	wframe  Frame         // reusable frame for writes

	pipe pipeline

	sent     int
	received int
}

// DialSiteOptions connects the given site node to the coordinator at addr
// using the given transport options and announces its site id.
func DialSiteOptions(node netsim.SiteNode, addr string, opts Options) (*SiteClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial: %w", err)
	}
	return newSiteClient(node, conn, clientConn(conn), opts)
}

// newSiteClient announces node's site id and sample size on a fresh
// connection, whose transport conn closes, and starts the client's reply
// reader. A coordinator that refuses the hello answers with an error frame,
// which the first operation to find the pipeline failed returns.
func newSiteClient(node netsim.SiteNode, conn io.Closer, fc frameConn, opts Options) (*SiteClient, error) {
	hello := Frame{Type: FrameHello, Site: node.ID()}
	if sz, ok := node.(sampleSizer); ok {
		hello.SampleSize = sz.SampleSize()
	}
	if err := writeFlush(fc, &hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: hello: %w", err)
	}
	opts.BatchSize, opts.Window = max(1, opts.BatchSize), max(1, opts.Window)
	c := &SiteClient{node: node, conn: conn, fc: fc, opts: opts}
	c.dnode, _ = node.(netsim.DigestSite)
	c.pipe.cond = sync.NewCond(&c.mu)
	c.pipe.done = make(chan struct{})
	go c.readLoop()
	return c, nil
}

// Abort closes the underlying transport immediately, without flushing
// buffered offers or draining the window. Buffered and in-flight offers stay
// retained for Unacked. The next operation fails as a connection error —
// this simulates (or reacts to) a network-level reset.
func (c *SiteClient) Abort() error {
	return c.conn.Close()
}

// Close flushes any buffered offers, drains the window, and closes the
// connection to the coordinator.
func (c *SiteClient) Close() error {
	flushErr := c.Flush()
	closeErr := c.conn.Close()
	<-c.pipe.done // the reader exits once the connection is closed
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// MessagesSent returns the number of offers shipped to the coordinator.
func (c *SiteClient) MessagesSent() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent
}

// MessagesReceived returns the number of replies received.
func (c *SiteClient) MessagesReceived() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.received
}

// Node returns the wrapped site node. After a connection failure the node —
// which holds the protocol state (threshold view, duplicate memo) — survives
// and is re-wrapped by a fresh SiteClient to the promoted replica.
func (c *SiteClient) Node() netsim.SiteNode { return c.node }

// Unacked returns a copy of every offer this client accepted but cannot
// prove the coordinator applied: shipped-but-unacknowledged batches (oldest
// first) followed by buffered pending offers. After a connection failure the
// caller replays these to the promoted replica. Replaying is always safe:
// offers are idempotent refreshes of a bottom-s sketch, so re-delivering an
// offer the dead primary did apply (and whose effect survived via a state
// push) changes nothing, while dropping an unapplied one could lose sample
// entries.
//
// It first applies the replies still queued for the site node, so the node
// handed on to a new connection has seen every reply this one received.
func (c *SiteClient) Unacked() []BatchEntry {
	_ = c.applyReplies() // the sticky error is the caller's reason to be here
	var out []BatchEntry
	c.mu.Lock()
	for _, b := range c.pipe.unacked {
		out = append(out, b...)
	}
	c.mu.Unlock()
	return append(out, c.pending...)
}

// Replay queues previously unacked offers (from a failed connection's
// Unacked) onto this client and ships them immediately, waiting until the
// coordinator has acknowledged every one.
func (c *SiteClient) Replay(entries []BatchEntry) error {
	if len(entries) == 0 {
		return nil
	}
	c.pending = append(c.pending, entries...)
	return c.Flush()
}

// Observe feeds one element observation to the local site node and ships
// the node's offers once they fill a batch frame, returning when the window
// has a free credit again: with a one-frame window, after the coordinator
// has answered the frame.
func (c *SiteClient) Observe(key string, slot int64) error {
	return c.observe(key, 0, false, slot)
}

// ObserveDigest is Observe for a key whose digest d the caller has already
// computed: a node with a digest entry point (netsim.DigestSite) filters on
// d instead of hashing the key again, any other node hashes it as under
// Observe. d must come from the node's own Hasher, or from one of the same
// kind and seed (hashing.Same).
func (c *SiteClient) ObserveDigest(key string, d uint64, slot int64) error {
	return c.observe(key, d, c.dnode != nil, slot)
}

// observe is Observe and ObserveDigest: digested says that d is to feed the
// node's digest entry point. It applies any queued replies, runs the node,
// buffers its messages, and ships a full batch without waiting for replies
// beyond the window. It takes mu only when replies are queued, when the
// connection has failed, or when a batch ships. On a failed connection the
// node still sees the arrival and its offers wait in Unacked before the
// error returns, as they would had the failure struck while shipping them.
func (c *SiteClient) observe(key string, d uint64, digested bool, slot int64) error {
	var err error
	if c.pipe.ready.Load() {
		err = c.applyReplies()
	}
	c.scratch.Reset()
	c.arrive(key, d, digested, slot)
	if len(c.scratch.Envelopes()) > 0 {
		if berr := c.buffer(slot); berr != nil {
			return berr
		}
	}
	if err != nil || len(c.pending) < c.opts.BatchSize {
		return err
	}
	return c.ship(false)
}

// arrive hands one arrival to the node, through its digest entry point when
// the caller has the digest, and queues the node's messages on the scratch
// outbox.
func (c *SiteClient) arrive(key string, d uint64, digested bool, slot int64) {
	if digested {
		c.dnode.OnDigest(key, d, slot, &c.scratch)
		return
	}
	c.node.OnArrival(key, slot, &c.scratch)
}

// EndSlot signals the end of a time slot to the local site node (needed by
// the sliding-window protocol for expiry-driven promotions), then ships
// every buffered offer and drains the window so nothing crosses the slot
// boundary unacknowledged. Like Observe, it runs the node even on a failed
// connection, leaving its offers to Unacked.
func (c *SiteClient) EndSlot(slot int64) error {
	err := c.applyReplies()
	c.scratch.Reset()
	c.node.OnSlotEnd(slot, &c.scratch)
	if berr := c.buffer(slot); berr != nil {
		return berr
	}
	if err != nil {
		return err
	}
	return c.Flush()
}

// Flush ships everything buffered and waits until the window is fully
// drained, then applies the queued replies, looping while they generate new
// offers. On return either every offer the site ever emitted has been
// acknowledged by the coordinator and its replies applied, or an error is
// reported.
func (c *SiteClient) Flush() error {
	for {
		if err := c.ship(true); err != nil {
			return err
		}
		c.mu.Lock()
		for c.pipe.inflight() > 0 && c.pipe.err == nil {
			c.pipe.cond.Wait()
		}
		c.mu.Unlock()
		if err := c.applyReplies(); err != nil {
			return err
		}
		if len(c.pending) == 0 {
			return nil
		}
	}
}

// noteBatchStart stamps the assembly start of the pending buffer's current
// fill, once per fill and only while tracing is enabled. One atomic load
// when tracing is off.
func (c *SiteClient) noteBatchStart() {
	if c.batchStartNs == 0 && obs.TracingEnabled() {
		c.batchStartNs = nowNanos()
	}
}

// routePush hands one server-initiated route-push frame to the configured
// callback. The frame is deep-copied first: the caller's frame buffer is
// reused by the next read, while the callback may hold the table (typically
// parking it in a mailbox applied between batches). A sampled push — the
// coordinator threads its reshard trace through the frame — records the
// site-side delivery as a route_push span.
func (c *SiteClient) routePush(f *Frame) {
	tc := f.Trace()
	var start int64
	if tc.Sampled() {
		start = nowNanos()
	}
	if c.opts.OnRoutePush != nil {
		g := copyFrame(f)
		c.opts.OnRoutePush(&g)
	}
	if tc.Sampled() {
		obs.StageSpan(tc, obs.StageRoutePush, start, nowNanos())
	}
}
