package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/netsim"
)

// memoHashes returns the hashes of a site's memo keys in ascending order.
func memoHashes(site *InfiniteSite) []float64 {
	hashes := make([]float64, 0, len(site.offered))
	for _, h := range site.offered {
		hashes = append(hashes, h)
	}
	sort.Float64s(hashes)
	return hashes
}

// memoBound is the bound a site's memo implies: the s-th smallest hash among
// its keys, or 1 while it holds fewer than s.
func memoBound(site *InfiniteSite) float64 {
	if hashes := memoHashes(site); len(hashes) >= site.s {
		return hashes[site.s-1]
	}
	return 1
}

// TestBoundedSiteBoundTracksMemo is the heap's invariant as a property: after
// every arrival and every reply, the bound equals the s-th smallest hash
// among the memo's keys (or 1), and an arrival is offered exactly when its
// hash beats both u and that bound and its key is not in the memo. The
// replies drive u down, up (a failover to a lagging replica, a donor after a
// split) and down again, and land exactly on memo hashes, so keys are pruned
// and later offered again; the run fails if it never did either.
func TestBoundedSiteBoundTracksMemo(t *testing.T) {
	const (
		s     = 8
		keys  = 300
		steps = 20000
	)
	h := testHasher()
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		site := NewBoundedInfiniteSite(0, h, s)
		pruned := make(map[string]bool) // keys offered once and pruned since
		reoffers, rises := 0, 0
		u := 1.0
		out := &netsim.Outbox{}
		for step := 0; step < steps; step++ {
			if rng.Intn(4) > 0 {
				key := fmt.Sprintf("k%d", rng.Intn(keys))
				hash := h.Unit(key)
				_, inMemo := site.offered[key]
				want := hash < site.Threshold() && hash < memoBound(site) && !inMemo
				site.OnArrival(key, 0, out)
				if got := len(out.Drain()) == 1; got != want {
					t.Fatalf("seed %d step %d: %s (hash %v, u %v, bound %v, in memo %v) offered=%v, want %v",
						seed, step, key, hash, site.Threshold(), memoBound(site), inMemo, got, want)
				}
				if want && pruned[key] {
					reoffers++
					delete(pruned, key)
				}
			} else {
				switch r := rng.Float64(); {
				case r < 0.1 && len(site.offered) > 0:
					// Exactly a memo hash: the key carrying it is pruned.
					hashes := memoHashes(site)
					u = hashes[rng.Intn(len(hashes))]
				case r < 0.25:
					u = min(1, u*(1.5+3*rng.Float64()))
					rises++
				default:
					u *= 0.8 + 0.2*rng.Float64()
				}
				for key, hash := range site.offered {
					if hash >= u {
						pruned[key] = true
					}
				}
				site.OnMessage(netsim.Message{Kind: netsim.KindThreshold, U: u}, 0, out)
			}
			if got, want := site.bound(), memoBound(site); got != want {
				t.Fatalf("seed %d step %d: bound %v, want the memo's s-th smallest hash %v", seed, step, got, want)
			}
			if got, want := len(site.least), min(s, len(site.offered)); got != want {
				t.Fatalf("seed %d step %d: heap holds %d hashes, memo %d keys; want %d", seed, step, got, len(site.offered), want)
			}
		}
		if reoffers == 0 || rises == 0 {
			t.Fatalf("seed %d: %d re-offers of pruned keys and %d rises of u; the schedule must exercise both", seed, reoffers, rises)
		}
	}
}

// TestBoundedSiteZeroDelayUnchanged checks that the bound never fires in the
// paper's zero-delay model, where a site hears the coordinator's threshold
// before its next arrival: a system of bounded sites exchanges exactly the
// messages of NewInfiniteSite's, and ends with the same sample.
func TestBoundedSiteZeroDelayUnchanged(t *testing.T) {
	const s = 16
	h := testHasher()
	for _, k := range []int{1, 3} {
		for seed := uint64(1); seed <= 3; seed++ {
			arrivals := distribute.Apply(dataset.Uniform(20000, 4000, seed).Generate(), distribute.NewRandom(k, seed))
			run := func(bounded bool) *netsim.Metrics {
				sys := NewSystem(k, s, h)
				if bounded {
					for i := range sys.Sites {
						sys.Sites[i] = NewBoundedInfiniteSite(i, h, s)
					}
				}
				m, err := sys.Runner(0, 0).RunSequential(arrivals)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			plain, bounded := run(false), run(true)
			if bounded.UpMessages != plain.UpMessages || bounded.DownMessages != plain.DownMessages {
				t.Errorf("k=%d seed %d: bounded sites exchanged %d/%d messages, unbounded %d/%d",
					k, seed, bounded.UpMessages, bounded.DownMessages, plain.UpMessages, plain.DownMessages)
			}
			if !reflect.DeepEqual(bounded.FinalSample, plain.FinalSample) {
				t.Errorf("k=%d seed %d: final samples differ", k, seed)
			}
		}
	}
}
