package main

import (
	"fmt"
	"time"

	"repro/internal/dataset"
)

// Every workload runs the client the README recommends against a two-shard
// cluster: one site client (two persistent connections), binary codec,
// batches of 64 offers, eight batches in flight.
const (
	shards   = 2
	batch    = 64
	pipeline = 8
)

// workload is one input set and cluster shape the benchmark can run.
type workload struct {
	name string
	why  string

	// Input: a first-occurrence stream shaped like one of the paper's
	// datasets (distinct ratio and Zipf skew of its repeats).
	shape    streamShape
	elements int

	sampleSize int
	// window > 0 runs the sliding-window protocol over slots of slotLen
	// consecutive elements, ending every slot with EndSlot.
	window  int64
	slotLen int

	// unfiltered replaces the paper's site with one that offers every
	// arrival, so every element crosses the wire (driven through
	// cluster.DialGroups instead of dds.Open).
	unfiltered bool

	replicas      int
	syncInterval  time.Duration
	spoolInterval time.Duration // > 0 arms the snapshot spool

	// ingestRate > 0 paces ingest open loop at that many elements/s, with
	// reads sent open loop beside it. Closed-loop workloads (0) read the
	// settled cluster after each ingest instead.
	ingestRate float64
}

const (
	// queryRate is the read rate beside paced ingest: dds.Query is sent at
	// this many queries/s while ingest runs, each timed from its due time.
	// One goroutine sends them in turn, so a read slower than the period
	// (12.5 ms; a read takes about 6 ms at s=4096) delays every later one.
	// At 40/s, in runs alternated with 80/s ones, reads took a fifth longer
	// at the median, on CPUs left idle between them.
	queryRate = 80
	// settledReads is how many back-to-back reads of the settled cluster a
	// closed-loop workload times after each ingest: enough for ten beyond
	// each repetition's 90th percentile. There is no think time between
	// them: reads spaced out on an idle cluster picked up the machine's
	// idle-CPU wake-up delays and were the least steady figures.
	settledReads = 100
)

// streamShape is the statistical shape of a synthetic stream, following
// internal/dataset's stand-ins for the paper's traces.
type streamShape struct {
	name          string
	distinctRatio float64 // expected distinct keys per element
	zipf          float64 // skew of repeats over already-seen keys
	key           func(i int) string
}

var (
	oc48Shape = streamShape{
		name:          "oc48",
		distinctRatio: float64(dataset.OC48Distinct) / float64(dataset.OC48Elements),
		zipf:          1.2,
		key:           dataset.IPPairKey,
	}
	enronShape = streamShape{
		name:          "enron",
		distinctRatio: float64(dataset.EnronDistinct) / float64(dataset.EnronElements),
		zipf:          1.1,
		key:           dataset.EmailPairKey,
	}
)

var workloads = []workload{
	{
		name:       "filtered",
		why:        "The paper's own traffic: OC48-like stream, s=64, closed loop, one client; the site filter drops >99.8% of arrivals, so hashing, routing and the memo check carry the time.",
		shape:      oc48Shape,
		elements:   1_500_000,
		sampleSize: 64,
	},
	{
		name:       "flood",
		why:        "Same stream, closed loop, but an unfiltered site offers every arrival: encode, transport, decode, coordinator lock, offer and replies carry the time; the site filter is bypassed.",
		shape:      oc48Shape,
		elements:   500_000,
		sampleSize: 64,
		unfiltered: true,
	},
	{
		name:          "query-mix",
		why:           "Enron-like stream, s=4096, a replica per shard, sync and spool every 100ms, ingest paced at 250k/s: O(s) work in every layer, and reads beside writes on the shared coordinator lock.",
		shape:         enronShape,
		elements:      375_000,
		sampleSize:    4096,
		replicas:      1,
		syncInterval:  100 * time.Millisecond,
		spoolInterval: 100 * time.Millisecond,
		ingestRate:    250_000,
	},
	{
		name:       "sliding",
		why:        "OC48-like stream in 4096-element slots, window 32, EndSlot at each boundary, closed loop: Algorithms 3-4 on treap window stores, the only path through sliding and treap.",
		shape:      oc48Shape,
		elements:   1_000_000,
		sampleSize: 1,
		window:     32,
		slotLen:    4096,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// paced reports whether the workload's ingest runs open loop.
func (w workload) paced() bool { return w.ingestRate > 0 }

// budgetHolds reports whether the site goroutine's timed calls must account
// for its wall time within budgetTolerance: closed-loop ingest through the
// paper's site on an infinite window, which drops nearly every arrival, so
// the goroutine rarely waits on the wire.
func (w workload) budgetHolds() bool { return !w.paced() && !w.unfiltered && w.window == 0 }
