package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sliding"
	"repro/internal/wire"
)

func TestPercentileReportsSampleCount(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i) // unsorted on purpose
	}
	p := percentile(vals, 0.9)
	if p.Value != 90 || p.N != 100 || p.Beyond != 10 {
		t.Fatalf("p90 of 1..100 = %+v, want value 90 over 100 samples with 10 beyond", p)
	}
	if !p.valid(10) {
		t.Fatalf("p90 with 10 samples beyond it must be valid")
	}
	if p := percentile(vals[:50], 0.9); p.N != 50 || p.Beyond != 5 || p.valid(10) {
		t.Fatalf("p90 of 50 samples = %+v, want 5 beyond and not valid", p)
	}
	if vals[0] != 100 {
		t.Fatalf("percentile reordered its input")
	}
	if p := percentile(nil, 0.5); p.N != 0 {
		t.Fatalf("percentile of nothing = %+v", p)
	}
}

// TestQuietReadsTheFastestTenth: a run's timed metrics come from the edge of
// its fastest tenth of repetitions, the high end for rates and the low end
// for times, so a slow phase of the host in some repetitions leaves them be.
func TestQuietReadsTheFastestTenth(t *testing.T) {
	vals := make([]float64, 20)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	vals[0], vals[19] = 1000, 0.001 // one stalled and one implausibly fast repetition
	if got := quiet(vals, true); got != 18 {
		t.Fatalf("quiet rate of 20 repetitions = %v, want the 18th of 20 (90th percentile)", got)
	}
	if got := quiet(vals, false); got != 2 {
		t.Fatalf("quiet time of 20 repetitions = %v, want the 2nd of 20 (10th percentile)", got)
	}
}

func TestScheduleDueAndLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(start, 10*time.Millisecond)
	if got := s.due(3); !got.Equal(start.Add(30 * time.Millisecond)) {
		t.Fatalf("due(3) = %v, want start+30ms", got)
	}
	// Event 3 starts 5ms late: its latency clock starts at its due time.
	if due := s.begin(3, start.Add(35*time.Millisecond)); !due.Equal(start.Add(30 * time.Millisecond)) {
		t.Fatalf("begin returned %v, want the due time", due)
	}
	// Event 4 starts early: lateness is never negative.
	s.begin(4, start.Add(39*time.Millisecond))
	if len(s.late) != 2 || s.late[0] != 5 || s.late[1] != 0 {
		t.Fatalf("lateness = %v ms, want [5 0]", s.late)
	}
}

// TestRepeatKeepsFailedCheck: a repetition whose checked read diverged and
// that then failed must still make the run incorrect, and the warm-up
// repetition's calls count while its measurements do not.
func TestRepeatKeepsFailedCheck(t *testing.T) {
	b := &bench{in: generate(oc48Shape, 100, 0, 1)}
	o, err := b.repeat(0, 0, 2, func(i int) (*rep, error) {
		r := &rep{ingest: time.Millisecond, calls: calls{attempted: 1}}
		if i == 0 {
			r.checkErr = errors.New("sample diverged")
			r.calls.failed = 1
			return r, errors.New("read failed")
		}
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.correct || len(o.reps) != 1 || o.calls.attempted != 3 || o.calls.failed != 1 {
		t.Fatalf("outcome correct=%v with %d reps and %+v calls, want incorrect, 1 rep, 1 of 3 failed",
			o.correct, len(o.reps), o.calls)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			if !nameRE.MatchString(s.name) {
				t.Errorf("metric name %q does not match %v", s.name, nameRE)
			}
			if !unitRE.MatchString(s.unit) {
				t.Errorf("metric %s: unit %q does not match %v", s.name, s.unit, unitRE)
			}
			if s.better != "higher" && s.better != "lower" {
				t.Errorf("metric %s: better is %q", s.name, s.better)
			}
			if seen[s.name] {
				t.Errorf("metric %s is listed twice", s.name)
			}
			seen[s.name] = true
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.name, len(w.why))
		}
	}
}

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json and the program's
// own tables in step.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	var maxBound, setupBound float64
	for i, m := range doc.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: file %+v, program %+v", i, m, s)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for i, m := range doc.PerLayer {
		s := perLayer[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per-layer metric %d: file %+v, program %+v", i, m, s)
		}
	}
}

func TestGenerateIsSeeded(t *testing.T) {
	a := generate(oc48Shape, 5000, 0, 7)
	b := generate(oc48Shape, 5000, 0, 7)
	c := generate(oc48Shape, 5000, 0, 8)
	if a.arena != b.arena || len(a.ids) != len(b.ids) {
		t.Fatalf("same seed gave different inputs")
	}
	for i := range a.ids {
		if a.ids[i] != b.ids[i] {
			t.Fatalf("same seed gave different streams at %d", i)
		}
	}
	if a.keyOf(0) == c.keyOf(0) {
		t.Fatalf("different seeds share key %q", a.keyOf(0))
	}
	if d := float64(a.distinct()) / 5000; d < 0.07 || d > 0.14 {
		t.Fatalf("distinct ratio %.3f far from the OC48 shape", d)
	}
}

func TestWrappersForwardSnapshotAndThreshold(t *testing.T) {
	tr := newTracer()
	for _, inner := range []snapCoord{core.NewInfiniteCoordinator(4), sliding.NewCoordinator()} {
		var node netsim.CoordinatorNode = &tracedCoord{snapCoord: inner}
		sn, ok := node.(core.Snapshotter)
		if !ok {
			t.Fatalf("%T wrapper does not forward core.Snapshotter", inner)
		}
		th, ok := node.(wire.Thresholder)
		if !ok || th.Threshold() != inner.Threshold() {
			t.Fatalf("%T wrapper does not forward Threshold", inner)
		}
		if got, want := sn.Snapshot(), inner.Snapshot(); got.Kind != want.Kind || got.SampleSize != want.SampleSize {
			t.Fatalf("%T wrapper snapshot %+v, inner %+v", inner, got, want)
		}
	}
	node, _ := wrapSite(sliding.NewSite(0, newHasher(), 4, 1), tr)
	if _, ok := node.(core.Snapshotter); !ok {
		t.Fatalf("sliding site wrapper does not forward core.Snapshotter")
	}
	node, _ = wrapSite(core.NewInfiniteSite(0, newHasher()), tr)
	if _, ok := node.(core.Snapshotter); ok {
		t.Fatalf("infinite site wrapper claims core.Snapshotter its site lacks")
	}
	if th, ok := node.(interface{ Threshold() float64 }); !ok || th.Threshold() != 1 {
		t.Fatalf("infinite site wrapper does not forward Threshold")
	}
}

// TestRepetitionsMatchReference runs one untraced and one traced repetition
// of every workload on a small input: both must pass the sample check, and
// the traced one must feed the per-layer accounting.
func TestRepetitionsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("brings clusters up")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.elements = 20_000
			if w.paced() {
				w.ingestRate = 200_000
			}
			b := &bench{w: w, workDir: t.TempDir(), tr: newTracer(), layers: &layerAcc{}}
			b.in = generate(w.shape, w.elements, w.slotLen, 3)
			if w.window > 0 {
				b.want = expectWindow(b.in, b.in.len(), w.window)
			} else {
				b.want = expectInfinite(b.in, b.in.len(), w.sampleSize)
			}
			ctx := context.Background()
			for _, traced := range []bool{false, true} {
				setTracing(traced)
				r, err := b.runRep(ctx, traced)
				setTracing(false)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if r.checkErr != nil {
					t.Fatalf("traced=%v: %v", traced, r.checkErr)
				}
				if r.calls.failed != 0 || len(r.queries) == 0 {
					t.Fatalf("traced=%v: %d failed calls, %d timed reads", traced, r.calls.failed, len(r.queries))
				}
			}
			if b.layers.elements != w.elements || len(b.layers.endStates) != shards {
				t.Fatalf("traced repetition recorded %d elements and %d end states", b.layers.elements, len(b.layers.endStates))
			}
			if calls := b.layers.hashers[0].calls.Load(); calls != 2*int64(w.elements) {
				t.Fatalf("hasher saw %d calls for %d elements, want two per element", calls, w.elements)
			}
			if _, _, err := b.sequential(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
