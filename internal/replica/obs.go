package replica

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Replication instruments. Sync rounds are counted only when a push actually
// happens; idle intervals (no new offers, no epoch change) count as skipped —
// the ratio is the duty cycle of the replication plane. Bytes count the
// encoded state each round pushes (once per round, not per replica).
var (
	obsSyncRounds    = obs.Default().Counter("dds_replica_sync_rounds_total")
	obsSyncSkipped   = obs.Default().Counter("dds_replica_sync_skipped_total")
	obsSyncBytes     = obs.Default().Counter("dds_replica_sync_bytes_total")
	obsSyncRoundNs   = obs.Default().Histogram("dds_replica_sync_round_ns", obs.ExpBuckets(1000, 4, 12))
	obsDeposedFences = obs.Default().Counter("dds_replica_deposed_fences_total")
	// Lease renewals granted to primaries (quorum of the group acked the
	// round) and rounds where the quorum was missed — each missed round is a
	// lease left to run down, the precursor of a dds_lease_lapses_total tick.
	obsLeaseRenewals = obs.Default().Counter("dds_replica_lease_renewals_total")
	obsLeaseNoQuorum = obs.Default().Counter("dds_replica_lease_noquorum_total")
)

// shardObs builds the per-slot instruments a group feeds: the offer and
// sample-churn counters injected into every member server (the load-watcher
// inputs — see ROADMAP) and the sync-lag gauge tracking the time between
// consecutive successful pushes (the staleness bound replicas actually see).
func shardObs(slot int) (offers, churn *obs.Counter, lag *obs.Gauge) {
	offers = obs.Default().Counter(fmt.Sprintf(`dds_shard_offers_total{slot="%d"}`, slot))
	churn = obs.Default().Counter(fmt.Sprintf(`dds_shard_sample_churn_total{slot="%d"}`, slot))
	lag = obs.Default().Gauge(fmt.Sprintf(`dds_replica_sync_lag_ns{slot="%d"}`, slot))
	return offers, churn, lag
}

func nowNanos() int64 { return time.Now().UnixNano() }
