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

// sortedHashes returns the hashes of offered in ascending order.
func sortedHashes(offered map[string]float64) []float64 {
	hashes := make([]float64, 0, len(offered))
	for _, h := range offered {
		hashes = append(hashes, h)
	}
	sort.Float64s(hashes)
	return hashes
}

// offeredBound is the bound that the keys offered through it imply: the
// s-th smallest of their hashes, or 1 while there are fewer than s.
func offeredBound(offered map[string]float64, s int) float64 {
	if hashes := sortedHashes(offered); len(hashes) >= s {
		return hashes[s-1]
	}
	return 1
}

// TestSharedBoundTracksOffers is the shared bound's invariant as a property.
// Two sites share one Bound and take interleaved arrivals. After every
// arrival and every reply, the bound equals the s-th smallest hash among the
// distinct keys offered through either site (or 1) and its set holds the
// min(s, offered) smallest of them, and an arrival is offered exactly when
// its hash beats its site's u and the bound and its key was never offered
// through the bound. Replies drive each site's u down, up (a failover to a
// lagging replica, a donor after a split) and exactly onto offered hashes;
// the run fails unless u rose, both sites offered, and both the bound and
// the duplicate test alone dropped an arrival that beat u.
func TestSharedBoundTracksOffers(t *testing.T) {
	const (
		s     = 8
		keys  = 300
		steps = 20000
	)
	h := testHasher()
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bound := NewBound(s)
		sites := []*InfiniteSite{NewSharedInfiniteSite(0, h, bound), NewSharedInfiniteSite(1, h, bound)}
		offered := make(map[string]float64) // every key offered through the bound
		offers := make([]int, len(sites))
		rises, boundDrops, repeatDrops := 0, 0, 0
		out := &netsim.Outbox{}
		for step := 0; step < steps; step++ {
			i := rng.Intn(len(sites))
			site := sites[i]
			if rng.Intn(4) > 0 {
				key := fmt.Sprintf("k%d", rng.Intn(keys))
				hash := h.Unit(key)
				_, repeat := offered[key]
				limit := offeredBound(offered, s)
				want := hash < site.Threshold() && hash < limit && !repeat
				site.OnArrival(key, 0, out)
				if got := len(out.Drain()) == 1; got != want {
					t.Fatalf("seed %d step %d: site %d: %s (hash %v, u %v, bound %v, offered before %v) offered=%v, want %v",
						seed, step, i, key, hash, site.Threshold(), limit, repeat, got, want)
				}
				switch {
				case want:
					offered[key] = hash
					offers[i]++
				case hash < site.Threshold() && hash >= limit && !repeat:
					boundDrops++
				case hash < site.Threshold() && hash < limit && repeat:
					repeatDrops++
				}
			} else {
				u := site.Threshold()
				switch r := rng.Float64(); {
				case r < 0.1 && len(offered) > 0:
					// Exactly an offered hash: that key no longer beats u.
					hashes := sortedHashes(offered)
					u = hashes[rng.Intn(len(hashes))]
				case r < 0.25:
					u = min(1, u*(1.5+3*rng.Float64()))
				default:
					u *= 0.8 + 0.2*rng.Float64()
				}
				if u > site.Threshold() {
					rises++
				}
				site.OnMessage(netsim.Message{Kind: netsim.KindThreshold, U: u}, 0, out)
			}
			if got, want := bound.set.Threshold(), offeredBound(offered, s); got != want {
				t.Fatalf("seed %d step %d: bound %v, want the offers' s-th smallest hash %v", seed, step, got, want)
			}
			if got, want := bound.set.Len(), min(s, len(offered)); got != want {
				t.Fatalf("seed %d step %d: bound holds %d keys of %d offered; want %d", seed, step, got, len(offered), want)
			}
		}
		t.Logf("seed %d: offers %v, %d rises of u, %d drops by the bound, %d by the duplicate test", seed, offers, rises, boundDrops, repeatDrops)
		if rises == 0 || offers[0] == 0 || offers[1] == 0 || boundDrops == 0 || repeatDrops == 0 {
			t.Fatalf("seed %d: offers %v, %d rises of u, %d drops by the bound, %d by the duplicate test; the schedule must exercise each",
				seed, offers, rises, boundDrops, repeatDrops)
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
