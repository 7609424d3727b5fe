package wire

import (
	"time"

	"repro/internal/obs"
)

// Package-level instruments, registered once at load into the default
// registry. The hot paths index pre-registered counters by binary frame code
// (an array load plus one atomic add — no map lookups, no allocation), so
// instrumentation does not disturb the zero-alloc encode/decode contract
// pinned by TestEncodeFrameAllocationFree.
var (
	// Frames encoded/decoded by kind, indexed by binary frame code. The JSON
	// codec counts into the same families via the nameToBin map (its per-frame
	// reflection cost dwarfs a map lookup).
	obsFramesEncoded [binLeaseAck + 1]*obs.Counter
	obsFramesDecoded [binLeaseAck + 1]*obs.Counter
	// Bytes on the wire, counted on the binary codec (length prefix included).
	obsBytesOut *obs.Counter
	obsBytesIn  *obs.Counter
	// Batch sizes shipped by site clients (entries per batch frame).
	obsBatchSize *obs.Histogram
	// Site ingest: time from shipping a batch frame to its cumulative ack,
	// and credit-window stalls (writer blocked on a full window).
	obsAckLatencyNs  *obs.Histogram
	obsCreditStalls  *obs.Counter
	obsCreditStallNs *obs.Histogram
	// Fence rejections by typed error: frames refused because the sender is
	// behind the server's epoch (wire.ErrDeposed territory) or route-table
	// version (wire.ErrStaleRoute).
	obsEpochFences *obs.Counter
	obsRouteFences *obs.Counter
	// Promote frames accepted (epoch ratcheted forward).
	obsPromotions *obs.Counter
	// Self-healing control plane: primaries whose offer lease expired before
	// a quorum-backed renewal (each lapse counted once, on the first fenced
	// offer), and route-push frames delivered to connected sites.
	obsLeaseLapses  *obs.Counter
	obsRoutePushes  *obs.Counter
	obsStrictFences *obs.Counter
)

func init() {
	r := obs.Default()
	for code, name := range binToName {
		obsFramesEncoded[code] = r.Counter(`dds_wire_frames_encoded_total{kind="` + name + `"}`)
		obsFramesDecoded[code] = r.Counter(`dds_wire_frames_decoded_total{kind="` + name + `"}`)
	}
	obsBytesOut = r.Counter("dds_wire_bytes_out_total")
	obsBytesIn = r.Counter("dds_wire_bytes_in_total")
	obsBatchSize = r.Histogram("dds_wire_batch_entries", []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	obsAckLatencyNs = r.Histogram("dds_wire_ack_latency_ns", obs.ExpBuckets(1000, 4, 12))
	obsCreditStalls = r.Counter("dds_wire_credit_stalls_total")
	obsCreditStallNs = r.Histogram("dds_wire_credit_stall_ns", obs.ExpBuckets(1000, 4, 12))
	obsEpochFences = r.Counter(`dds_wire_fence_rejections_total{fence="epoch"}`)
	obsRouteFences = r.Counter(`dds_wire_fence_rejections_total{fence="route"}`)
	obsPromotions = r.Counter("dds_wire_promotions_total")
	obsLeaseLapses = r.Counter("dds_lease_lapses_total")
	obsRoutePushes = r.Counter("dds_route_pushes_total")
	obsStrictFences = r.Counter(`dds_wire_fence_rejections_total{fence="strict-route"}`)
}

// fenceEvent records one rejected frame in the control-plane event log —
// called after the server lock is released; fences are rare by construction.
func fenceEvent(fence, frameType string, frameStamp, serverStamp uint64) {
	obs.Logger().Warn("fence rejection",
		"fence", fence, "frame", frameType,
		"frame_stamp", frameStamp, "server_stamp", serverStamp)
}

// batchFenceObs records one NACKed batch frame after the server lock is
// released. leaseFenced says the lease fence fired, not the strict-route one:
// a lease lapse counts once per lapse edge (lapsed is the edge flag from
// leaseFenceLocked); a strict-route rejection counts every NACK — each one is
// a stale site that will retry after applying the pushed table.
func batchFenceObs(leaseFenced, lapsed bool, nack string) {
	if leaseFenced {
		if lapsed {
			obsLeaseLapses.Inc()
			obs.Logger().Warn("lease lapsed", "detail", nack)
		}
		return
	}
	obsStrictFences.Inc()
	obs.Logger().Warn("fence rejection", "fence", "strict-route", "detail", nack)
}

// nowNanos is time.Now().UnixNano(), indirected for readability at the call
// sites.
func nowNanos() int64 { return time.Now().UnixNano() }
