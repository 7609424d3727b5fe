package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// syncDialTimeout bounds replication and failover dials. Health probes must
// fail fast: a site stalled on a dead replica's dial is a site not ingesting.
const syncDialTimeout = 3 * time.Second

// ErrDeposed is the epoch fence: the peer has been promoted past the
// sender's epoch, so the sender is a deposed primary (or is talking to one)
// and its state push was rejected, not applied. Callers detect it with
// errors.Is; the public dds package re-exports it.
var ErrDeposed = errors.New("wire: fenced by a higher epoch (sender deposed)")

// ErrStaleRoute is the route-version fence: the peer has already applied a
// newer routing table than the frame was stamped with, so the route update
// or handoff was rejected. Callers detect it with errors.Is; the public dds
// package re-exports it.
var ErrStaleRoute = errors.New("wire: fenced by a newer route-table version")

// ErrLeaseLapsed is the lease fence: the primary's time-bounded lease has
// expired without a quorum-backed renewal, so it NACKs offers instead of
// accepting writes it may no longer be entitled to — the acked-but-doomed
// window a partitioned primary otherwise has until its next fenced sync.
// Clients retain the rejected offers and replay them once the lease renews
// (partition healed) or a promoted member takes over. Callers detect it with
// errors.Is; the public dds package re-exports it.
var ErrLeaseLapsed = errors.New("wire: primary lease lapsed (offers fenced)")

// ErrNotSnapshottable is the typed form of a coordinator refusing a
// state-snapshot operation because its node predates the Snapshot/Restore
// API (legacy simulation nodes such as core.NewBroadcastCoordinator;
// sliding.MultiCoordinator gained real Snapshot/Restore via the
// section-level slot clock and no longer trips this). Every caller path
// that asks such a node for its state — replica attach, the state-frame
// push, route-update, cluster handoff, dds backup — gets an error wrapping
// this sentinel instead of a silent degrade; callers detect it with
// errors.Is, and the public dds package re-exports it.
var ErrNotSnapshottable = errors.New("wire: coordinator node does not support state snapshots")

// Error-frame codes: the byte ahead of an error frame's text that types the
// refusal, so the client restores the sentinel without reading the text.
// errGeneric, the zero value, marks every refusal without a sentinel.
const (
	errGeneric byte = iota
	errStaleRoute
	errLeaseLapsed
	errNotSnapshottable
)

// notSnapshottableFrame is the error frame a node without core.Snapshotter
// answers every state request with (state-frame, state-handoff, snapshot,
// route-update), so coordError types each refusal the same way.
func notSnapshottableFrame(frameType string) *Frame {
	return &Frame{Type: FrameError, errCode: errNotSnapshottable,
		Error: frameType + ": coordinator node does not support state snapshots"}
}

// coordError turns an error frame into a client-side error, wrapping the
// sentinel its code names so errors.Is works across the wire. A generic or
// unknown code gives an untyped error.
func coordError(f *Frame) error {
	var sentinel error
	switch f.errCode {
	case errStaleRoute:
		sentinel = ErrStaleRoute
	case errLeaseLapsed:
		sentinel = ErrLeaseLapsed
	case errNotSnapshottable:
		sentinel = ErrNotSnapshottable
	default:
		return errors.New("wire: coordinator error: " + f.Error)
	}
	return fmt.Errorf("wire: coordinator error: %s: %w", f.Error, sentinel)
}

// SyncClient speaks the control half of the protocol to one coordinator
// server: state-frame pushes (primary → replica), promote/probe exchanges
// (failover clients → replica), lease renewals, and the reshard driver's
// route-update, state-handoff, and snapshot requests. One SyncClient is used
// by one goroutine at a time.
type SyncClient struct {
	conn   io.Closer
	fc     frameConn
	rframe Frame
}

// DialSync connects to the coordinator at addr for replication traffic.
func DialSync(addr string, codec Codec) (*SyncClient, error) {
	conn, err := net.DialTimeout("tcp", addr, syncDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial sync: %w", err)
	}
	return &SyncClient{conn: conn, fc: clientConn(conn)}, nil
}

// DialSyncWrap is DialSync with transport middleware: wrap receives the
// dialed connection's frame codec and returns the FrameConn actually used —
// the seam through which faultnet injects seeded faults into replication
// traffic (replica.Options.SyncWrap threads it here). A nil wrap is DialSync.
func DialSyncWrap(addr string, codec Codec, wrap func(FrameConn) FrameConn) (*SyncClient, error) {
	c, err := DialSync(addr, codec)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		c.fc = wrap(c.fc)
	}
	return c, nil
}

// NewMemSync connects a SyncClient to an in-process coordinator server over
// an in-memory frame pipe (see MemConn).
func NewMemSync(srv *CoordinatorServer) *SyncClient {
	fc := srv.ServeMem()
	return &SyncClient{conn: fc, fc: fc}
}

// NewMemSyncWrap is NewMemSync with transport middleware, the in-memory twin
// of DialSyncWrap: faultnet self-tests inject faults into a pipe this way
// without touching sockets.
func NewMemSyncWrap(srv *CoordinatorServer, wrap func(FrameConn) FrameConn) *SyncClient {
	c := NewMemSync(srv)
	if wrap != nil {
		c.fc = wrap(c.fc)
	}
	return c
}

// Close closes the underlying connection.
func (c *SyncClient) Close() error { return c.conn.Close() }

// roundTrip writes one frame and reads the state-ack answering it.
func (c *SyncClient) roundTrip(f *Frame) (ackEpoch, ackSeq uint64, err error) {
	if err := writeFlush(c.fc, f); err != nil {
		return 0, 0, fmt.Errorf("wire: send %s: %w", f.Type, err)
	}
	if err := c.fc.ReadFrame(&c.rframe); err != nil {
		return 0, 0, fmt.Errorf("wire: read state-ack: %w", err)
	}
	switch c.rframe.Type {
	case FrameStateAck, FrameLeaseAck:
		return c.rframe.Epoch, c.rframe.Seq, nil
	case FrameError:
		return 0, 0, coordError(&c.rframe)
	default:
		return 0, 0, errors.New("wire: unexpected frame " + c.rframe.Type)
	}
}

// Promote asks the server to assume the given epoch (idempotent: epochs only
// ever ratchet up) and returns its resulting epoch. Promote(0) never changes
// anything and doubles as the health/epoch probe.
func (c *SyncClient) Promote(epoch uint64) (ackEpoch uint64, err error) {
	ackEpoch, _, err = c.roundTrip(&Frame{Type: FramePromote, Epoch: epoch})
	return ackEpoch, err
}

// RenewLease grants (or extends) the server's offer lease for the given
// interval at the sender's epoch. The first renewal arms lease fencing on the
// server; from then on the server NACKs offers with ErrLeaseLapsed whenever
// the lease expires before the next renewal. ackEpoch differing from epoch
// means the renewal was fenced (the server has been promoted past the
// sender) and the lease was NOT extended.
func (c *SyncClient) RenewLease(epoch uint64, interval time.Duration) (ackEpoch uint64, err error) {
	return c.RenewLeaseTraced(obs.TraceContext{}, epoch, interval)
}

// RenewLeaseTraced is RenewLease carrying a trace context, so a sampled sync
// round's lease renewal is visible in the same trace as the ingest and state
// push that preceded it. A zero context is RenewLease.
func (c *SyncClient) RenewLeaseTraced(tc obs.TraceContext, epoch uint64, interval time.Duration) (ackEpoch uint64, err error) {
	f := Frame{Type: FrameLeaseRenew, Epoch: epoch, Seq: uint64(interval.Nanoseconds())}
	f.SetTrace(tc)
	ackEpoch, _, err = c.roundTrip(&f)
	return ackEpoch, err
}

// SyncFrame pushes one encoded core.State as a state-frame — the primary's
// full state, with its epoch, a per-epoch sequence number, and the slot
// metadata — and returns the replica's resulting epoch. ackEpoch > epoch
// means the replica has been promoted past the sender: the sender is a
// deposed primary and the frame was fenced off, not applied (see ErrDeposed,
// which the caller should wrap).
func (c *SyncClient) SyncFrame(epoch, seq uint64, slot int64, encoded []byte) (ackEpoch uint64, err error) {
	return c.SyncFrameTraced(obs.TraceContext{}, epoch, seq, slot, encoded)
}

// SyncFrameTraced is SyncFrame carrying a trace context: the replication
// driver threads the ingest trace it took from the primary (TakeTrace)
// through the frame, and the receiving replica records its apply under the
// same trace. A zero context is SyncFrame.
func (c *SyncClient) SyncFrameTraced(tc obs.TraceContext, epoch, seq uint64, slot int64, encoded []byte) (ackEpoch uint64, err error) {
	f := Frame{Type: FrameState, Epoch: epoch, Seq: seq, Slot: slot, State: encoded}
	f.SetTrace(tc)
	ackEpoch, _, err = c.roundTrip(&f)
	return ackEpoch, err
}

// HandoffState ships an encoded donor state to the server, which absorbs the
// sections filtered to [lo, hi) into its own state (each sampler kind's own
// union semantics). Idempotent; fenced below the server's route version.
func (c *SyncClient) HandoffState(ver uint64, lo, hi uint64, encoded []byte) (ackVer uint64, err error) {
	_, ackVer, err = c.roundTrip(&Frame{Type: FrameStateHandoff, Seq: ver, Lo: lo, Hi: hi, State: encoded})
	return ackVer, err
}

// FetchState requests the server's full state (a snapshot frame answered by
// a state-frame) and returns the decoded state with its epoch and slot
// metadata — the capture half of a handoff or backup.
func (c *SyncClient) FetchState() (st core.State, epoch uint64, slot int64, err error) {
	if err := writeFlush(c.fc, &Frame{Type: FrameSnapshot}); err != nil {
		return core.State{}, 0, 0, fmt.Errorf("wire: send snapshot request: %w", err)
	}
	if err := c.fc.ReadFrame(&c.rframe); err != nil {
		return core.State{}, 0, 0, fmt.Errorf("wire: read state-frame: %w", err)
	}
	switch c.rframe.Type {
	case FrameState:
		st, err := core.DecodeState(c.rframe.State)
		if err != nil {
			return core.State{}, 0, 0, err
		}
		return st, c.rframe.Epoch, c.rframe.Slot, nil
	case FrameError:
		return core.State{}, 0, 0, coordError(&c.rframe)
	default:
		return core.State{}, 0, 0, errors.New("wire: unexpected frame " + c.rframe.Type)
	}
}

// SnapshotAddr dials addr, fetches the coordinator's full state, and returns
// it decoded.
func SnapshotAddr(addr string, codec Codec) (core.State, error) {
	c, err := DialSync(addr, codec)
	if err != nil {
		return core.State{}, err
	}
	defer c.Close()
	st, _, _, err := c.FetchState()
	return st, err
}

// HandoffStateAddr dials addr, sends one state-handoff frame, and returns
// the server's resulting route version.
func HandoffStateAddr(addr string, ver, lo, hi uint64, st core.State, codec Codec) (uint64, error) {
	c, err := DialSync(addr, codec)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.HandoffState(ver, lo, hi, core.EncodeState(st))
}

// RouteUpdate assigns the server its new routing-hash range [lo, hi) as of
// the given route-table version (hi == 0 means up to 2^64): the server drops
// every sample entry outside the range. It returns the server's resulting
// route version; ackVer > ver means the frame was fenced off — the server has
// already applied a newer routing table.
func (c *SyncClient) RouteUpdate(ver uint64, lo, hi uint64) (ackVer uint64, err error) {
	_, ackVer, err = c.roundTrip(&Frame{Type: FrameRouteUpdate, Seq: ver, Lo: lo, Hi: hi})
	return ackVer, err
}

// RouteUpdateAddr dials addr, sends one route-update frame, and returns the
// server's resulting route version.
func RouteUpdateAddr(addr string, ver, lo, hi uint64, codec Codec) (uint64, error) {
	c, err := DialSync(addr, codec)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.RouteUpdate(ver, lo, hi)
}

// PromoteAddr dials addr, sends one promote frame for the given epoch, and
// returns the server's resulting epoch.
func PromoteAddr(addr string, epoch uint64, codec Codec) (uint64, error) {
	c, err := DialSync(addr, codec)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.Promote(epoch)
}

// ProbeEpoch health-checks the server at addr and returns its current epoch
// without changing anything.
func ProbeEpoch(addr string, codec Codec) (uint64, error) {
	return PromoteAddr(addr, 0, codec)
}
