package sliding

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/stream"
)

// TestSharedSiteZeroDelayUnchanged checks that counting its own offers never
// changes a site's messages in the paper's zero-delay model, where the reply
// to an offer arrives before the next arrival: it carries the coordinator's
// minimum, at most the offer's hash, which the site adopts either way. A
// system of sites that each own a candidate (NewSharedSite over
// NewCandidate) exchanges exactly the literal sites' messages and ends with
// the same sample.
func TestSharedSiteZeroDelayUnchanged(t *testing.T) {
	const window = 25
	h := testHasher()
	for _, k := range []int{1, 3} {
		for seed := uint64(1); seed <= 3; seed++ {
			elements := stream.Reslot(dataset.Uniform(20000, 4000, seed).Generate(), 20)
			arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))
			run := func(adopt bool) *netsim.Metrics {
				sys := NewSystem(k, window, h, seed)
				if adopt {
					seeds := hashing.SeedSequence(seed, k)
					for i := range sys.Sites {
						sys.Sites[i] = NewSharedSite(i, h, window, seeds[i], NewCandidate())
					}
				}
				m, err := sys.Runner(0, 0).RunSequential(arrivals)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			literal, adopting := run(false), run(true)
			if adopting.UpMessages != literal.UpMessages || adopting.DownMessages != literal.DownMessages {
				t.Errorf("k=%d seed %d: adopting sites exchanged %d/%d messages, literal sites %d/%d",
					k, seed, adopting.UpMessages, adopting.DownMessages, literal.UpMessages, literal.DownMessages)
			}
			if !reflect.DeepEqual(adopting.FinalSample, literal.FinalSample) {
				t.Errorf("k=%d seed %d: final samples differ: %v, literal %v", k, seed, adopting.FinalSample, literal.FinalSample)
			}
		}
	}
}

// TestSharedSiteUnits pins the rules of sites that share a candidate: an
// offer becomes the candidate at once, for every member; a reply above a
// live candidate joins the replying site's store but is stale; an expired
// candidate is replaced once per slot end, by the minimum over all the
// members' stores, which the member holding it reports; and a member that
// leaves no longer counts.
func TestSharedSiteUnits(t *testing.T) {
	h := testHasher()
	cand := NewCandidate()
	a := NewSharedSite(0, h, 5, 1, cand)
	b := NewSharedSite(0, h, 5, 2, cand)
	out := &netsim.Outbox{}
	big, small := findHashOrdered(h, "pivot")

	a.OnArrival("pivot", 10, out)
	if envs := out.Drain(); len(envs) != 1 || envs[0].Msg.Key != "pivot" {
		t.Fatalf("first arrival offered %v, want pivot", envs)
	}
	if a.Threshold() != h.Unit("pivot") || b.Threshold() != h.Unit("pivot") {
		t.Fatalf("thresholds %v and %v after the offer, want pivot's hash %v for both", a.Threshold(), b.Threshold(), h.Unit("pivot"))
	}
	// The sibling filters against the adopted candidate before any reply.
	b.OnArrival(big, 11, out)
	if envs := out.Drain(); len(envs) != 0 {
		t.Fatalf("sibling offered %v above the shared candidate", envs)
	}
	// A stale reply (its coordinator has not heard pivot) joins b's store,
	// where it already is, and leaves the candidate alone.
	b.OnMessage(netsim.Message{Kind: netsim.KindWindowSample, Key: big, Hash: h.Unit(big), Expiry: 15}, 11, out)
	if b.Threshold() != h.Unit("pivot") {
		t.Fatalf("stale reply moved the candidate to %v", b.Threshold())
	}
	// A reply below the candidate is adopted.
	b.OnMessage(netsim.Message{Kind: netsim.KindWindowSample, Key: small, Hash: h.Unit(small), Expiry: 12}, 11, out)
	if a.Threshold() != h.Unit(small) {
		t.Fatalf("reply below the candidate not adopted: threshold %v, want %v", a.Threshold(), h.Unit(small))
	}
	// At slot 13 the candidate (expiry 12) has expired; pivot expired at 14
	// is a's, big (expiry 15) is b's. Whichever member ends the slot first
	// promotes pivot, and only a reports it, once.
	b.OnSlotEnd(13, out)
	if envs := out.Drain(); len(envs) != 0 {
		t.Fatalf("b reported %v, a promotion from a's store", envs)
	}
	a.OnSlotEnd(13, out)
	if envs := out.Drain(); len(envs) != 1 || envs[0].Msg.Key != "pivot" || envs[0].Msg.Expiry != 14 {
		t.Fatalf("a reported %v, want pivot expiring at 14", envs)
	}
	a.OnSlotEnd(13, out)
	b.OnSlotEnd(13, out)
	if envs := out.Drain(); len(envs) != 0 {
		t.Fatalf("a repeated slot end reported %v", envs)
	}
	// At slot 15 only b's tuple is live.
	a.OnSlotEnd(15, out)
	b.OnSlotEnd(15, out)
	if envs := out.Drain(); len(envs) != 1 || envs[0].Msg.Key != big {
		t.Fatalf("slot 15 reported %v, want %s from b", envs, big)
	}
	// Once b leaves, its tuple no longer counts: a later promotion finds
	// nothing and the next arrival is offered unconditionally.
	b.Leave()
	a.OnSlotEnd(16, out)
	if a.Threshold() != 1 {
		t.Fatalf("threshold %v after the only live member left, want 1", a.Threshold())
	}
	if envs := out.Drain(); len(envs) != 0 {
		t.Fatalf("promotion without members reported %v", envs)
	}
	a.OnArrival(big, 20, out)
	if envs := out.Drain(); len(envs) != 1 {
		t.Fatalf("arrival after an empty promotion offered %v, want one offer", envs)
	}
	// The shared site snapshots its store alone.
	if st := a.Snapshot(); st.Sections[0].Candidate != nil {
		t.Fatalf("shared site snapshot carries the client's candidate %+v", st.Sections[0].Candidate)
	}
}
