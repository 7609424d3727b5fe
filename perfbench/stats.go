package main

import (
	"math"
	"sort"
	"time"

	"repro/dds"
)

// pct is one percentile of a latency sample, reported with the number of
// samples it was taken from and how many lie strictly beyond it. A tail
// percentile is only trustworthy with at least ten samples beyond it.
type pct struct {
	Value  float64
	N      int
	Beyond int
}

// valid reports whether at least minBeyond samples lie beyond the percentile.
func (p pct) valid(minBeyond int) bool { return p.Beyond >= minBeyond }

// percentile returns the q-quantile (0 < q <= 1) of vals by the nearest-rank
// method: the smallest sample with at least q·n samples at or below it. vals
// is not modified.
func percentile(vals []float64, q float64) pct {
	n := len(vals)
	if n == 0 {
		return pct{}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return pct{Value: sorted[rank], N: n, Beyond: n - 1 - rank}
}

// median returns the median of vals (the mean of the middle two for an even
// count), or 0 for none.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quietShare is the share of a run's repetitions its timed metrics are read
// from. The benchmark shares a few cores of a host with other machines,
// whose load comes in phases of seconds to minutes and slows every
// repetition it overlaps by up to a third; it never speeds one up. So the
// median over repetitions follows the host's short phases, while the
// fastest tenth stays near the program's undisturbed speed whenever a run
// has a few quiet seconds. A phase longer than a run moves both.
const quietShare = 0.1

// quiet returns vals at the edge of their fastest quietShare: the
// (1-quietShare)-quantile of rates (higher is faster), or the
// quietShare-quantile of times.
func quiet(vals []float64, rate bool) float64 {
	q := quietShare
	if rate {
		q = 1 - quietShare
	}
	return percentile(vals, q).Value
}

// schedule is an open-loop timetable: event i is due at start + i·period,
// whatever happened to earlier events. A request is timed from its due time,
// so a stall shows up in the latency of every request it delays, and the
// generator's own lateness (how long after its due time an event actually
// started) is recorded to show whether the load was really applied.
type schedule struct {
	start  time.Time
	period time.Duration
	late   []float64 // milliseconds, one per started event
}

func newSchedule(start time.Time, period time.Duration) *schedule {
	return &schedule{start: start, period: period}
}

// due returns event i's due time.
func (s *schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.period) }

// begin records that event i started at now and returns its due time.
func (s *schedule) begin(i int, now time.Time) time.Time {
	due := s.due(i)
	late := now.Sub(due)
	if late < 0 {
		late = 0
	}
	s.late = append(s.late, ms(late))
	return due
}

// wait sleeps until event i is due (not at all when it is already late).
func (s *schedule) wait(i int) {
	if d := time.Until(s.due(i)); d > 0 {
		time.Sleep(d)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricsDelta is the difference between two snapshots of the process's
// metrics registry (dds.Metrics): counters and histogram count/sum over an
// interval.
type metricsDelta struct {
	before, after dds.MetricsSnapshot
}

func (d metricsDelta) counter(name string) float64 {
	return float64(d.after.Counter(name)) - float64(d.before.Counter(name))
}

// hist returns the number of observations and their sum over the interval.
func (d metricsDelta) hist(name string) (count, sum float64) {
	a := d.after.Histogram(name)
	if a == nil {
		return 0, 0
	}
	count, sum = float64(a.Count), float64(a.Sum)
	if b := d.before.Histogram(name); b != nil {
		count -= float64(b.Count)
		sum -= float64(b.Sum)
	}
	return count, sum
}

// skew returns max ÷ mean of vals (1 for a perfectly even split, 0 when
// there is nothing to compare).
func skew(vals []float64) float64 {
	var sum, max float64
	for _, v := range vals {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(vals)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
