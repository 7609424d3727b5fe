package wire

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/stream"
)

// infiniteState encodes an infinite-kind core.State of sample size s holding
// entries: the payload a bottom-s primary's state-frame carries.
func infiniteState(s int, entries ...netsim.SampleEntry) []byte {
	return core.EncodeState(core.State{
		Version:    core.StateVersion,
		Kind:       core.StateInfinite,
		SampleSize: s,
		Sections:   []core.SectionState{{Entries: entries}},
	})
}

// TestStateSyncRestoresReplica checks the replication primitive end to end
// over the in-memory backend: one state-frame makes the replica's sample
// byte-identical to the pushed state, re-application is idempotent, and a
// second frame supersedes the first.
func TestStateSyncRestoresReplica(t *testing.T) {
	coord := core.NewInfiniteCoordinator(4)
	srv := NewCoordinatorServer(coord)
	defer srv.Close()
	sc := NewMemSync(srv)
	defer sc.Close()

	first := infiniteState(4,
		netsim.SampleEntry{Key: "a", Hash: 0.10},
		netsim.SampleEntry{Key: "b", Hash: 0.20},
	)
	if _, err := sc.SyncFrame(0, 1, 5, first); err != nil {
		t.Fatal(err)
	}
	got := srv.Sample()
	if len(got) != 2 || got[0].Key != "a" || got[1].Key != "b" {
		t.Fatalf("replica sample after sync: %+v", got)
	}
	// Idempotent re-application.
	if _, err := sc.SyncFrame(0, 1, 5, first); err != nil {
		t.Fatal(err)
	}
	if again := srv.Sample(); len(again) != 2 {
		t.Fatalf("re-applied sync changed the sample: %+v", again)
	}
	// A newer frame replaces the state outright (no merging).
	second := infiniteState(4, netsim.SampleEntry{Key: "c", Hash: 0.05})
	if _, err := sc.SyncFrame(0, 2, 6, second); err != nil {
		t.Fatal(err)
	}
	got = srv.Sample()
	if len(got) != 1 || got[0].Key != "c" {
		t.Fatalf("replica sample after superseding sync: %+v", got)
	}
	// Threshold is re-derived from the restored set.
	if u := coord.Threshold(); u != 1 {
		t.Fatalf("threshold after restoring 1 of 4 entries = %v, want 1", u)
	}
}

// TestStateSyncEpochFencing checks the promotion/fencing rules: promote
// ratchets the epoch up (idempotently, never down), and a state-frame stamped
// with a stale epoch is rejected while its ack reveals the newer epoch to
// the deposed sender.
func TestStateSyncEpochFencing(t *testing.T) {
	srv := NewCoordinatorServer(core.NewInfiniteCoordinator(4))
	defer srv.Close()
	sc := NewMemSync(srv)
	defer sc.Close()

	if epoch, err := sc.Promote(0); err != nil || epoch != 0 {
		t.Fatalf("probe promote = (%d, %v), want (0, nil)", epoch, err)
	}
	if epoch, err := sc.Promote(2); err != nil || epoch != 2 {
		t.Fatalf("promote(2) = (%d, %v)", epoch, err)
	}
	if !srv.Promoted() {
		t.Fatal("server does not report itself promoted")
	}
	// Promotion never moves backwards.
	if epoch, err := sc.Promote(1); err != nil || epoch != 2 {
		t.Fatalf("promote(1) after epoch 2 = (%d, %v), want (2, nil)", epoch, err)
	}
	// A deposed primary's sync (epoch 0) is fenced: not applied, and the ack
	// carries the newer epoch.
	ackEpoch, err := sc.SyncFrame(0, 1, 0, infiniteState(4, netsim.SampleEntry{Key: "stale", Hash: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	if ackEpoch != 2 {
		t.Fatalf("stale sync ack epoch = %d, want 2", ackEpoch)
	}
	if got := srv.Sample(); len(got) != 0 {
		t.Fatalf("stale sync was applied: %+v", got)
	}
	// The new primary's sync (epoch 2) applies.
	if _, err := sc.SyncFrame(2, 1, 0, infiniteState(4, netsim.SampleEntry{Key: "fresh", Hash: 0.02})); err != nil {
		t.Fatal(err)
	}
	if got := srv.Sample(); len(got) != 1 || got[0].Key != "fresh" {
		t.Fatalf("current-epoch sync not applied: %+v", got)
	}
	// Within an epoch, an older sequence number cannot roll state back.
	if _, err := sc.SyncFrame(2, 0, 0, infiniteState(4, netsim.SampleEntry{Key: "old", Hash: 0.03})); err != nil {
		t.Fatal(err)
	}
	if got := srv.Sample(); len(got) != 1 || got[0].Key != "fresh" {
		t.Fatalf("stale-seq sync rolled state back: %+v", got)
	}
}

// TestPromoteOverTCP exercises DialSync/PromoteAddr/ProbeEpoch against a
// real listener, including the fast failure on a dead address.
func TestPromoteOverTCP(t *testing.T) {
	srv := NewCoordinatorServer(core.NewInfiniteCoordinator(4))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		if epoch, err := ProbeEpoch(addr, codec); err != nil || epoch != srv.Epoch() {
			t.Fatalf("%v probe = (%d, %v), server epoch %d", codec, epoch, err, srv.Epoch())
		}
	}
	if epoch, err := PromoteAddr(addr, 3, CodecBinary); err != nil || epoch != 3 {
		t.Fatalf("PromoteAddr = (%d, %v)", epoch, err)
	}
	if _, err := ProbeEpoch("127.0.0.1:1", CodecBinary); err == nil {
		t.Fatal("probe of a dead address should fail")
	}
}

// TestReplyThinning is the reply-thinning acceptance test: a batch whose
// every offer tightens the coordinator threshold used to draw one distinct
// threshold refresh per offer; since the refreshes are idempotent and only
// the last matters, the server now ships exactly one, and the encoded
// replies frame shrinks accordingly.
func TestReplyThinning(t *testing.T) {
	const n = 32
	srv := NewCoordinatorServer(core.NewInfiniteCoordinator(2))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// One batch of offers with strictly decreasing hashes: after the sample
	// fills (s = 2), every further offer evicts the maximum and lowers u, so
	// without thinning each would generate a *different* threshold reply and
	// consecutive-identical coalescing alone would keep all of them.
	batch := make([]BatchEntry, n)
	thresholds := make([]netsim.Message, 0, n)
	for i := range batch {
		hash := 0.5 / float64(i+1)
		batch[i] = BatchEntry{Msg: netsim.Message{Kind: netsim.KindOffer, Key: "k" + string(rune('a'+i)), Hash: hash}}
		thresholds = append(thresholds, netsim.Message{Kind: netsim.KindThreshold, U: hash, From: netsim.CoordinatorID})
	}

	// A raw site connection: a SiteClient's own reader would race this
	// test for the replies frame.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c, err := clientConn(conn, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFlush(c, &Frame{Type: FrameHello, Site: 0}); err != nil {
		t.Fatal(err)
	}
	if err := writeFlush(c, &Frame{Type: FrameBatch, Batch: batch}); err != nil {
		t.Fatal(err)
	}
	var resp Frame
	if err := c.ReadFrame(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Type != FrameReplies {
		t.Fatalf("got %q frame: %+v", resp.Type, resp)
	}
	if len(resp.Msgs) != 1 {
		t.Fatalf("batch of %d threshold-lowering offers drew %d replies, want 1 (thinned)", n, len(resp.Msgs))
	}
	// The surviving reply is the *last* refresh: the threshold after the
	// final offer, i.e. the second-smallest hash in the batch (s = 2).
	if got, want := resp.Msgs[0].U, batch[n-2].Msg.Hash; got != want {
		t.Fatalf("thinned reply u = %v, want the final threshold %v", got, want)
	}
	if _, replies, _ := srv.Stats(); replies != 1 {
		t.Fatalf("server counted %d replies, want 1", replies)
	}

	// Quantify the byte reduction on the wire: the unthinned frame would
	// have carried every refresh.
	encodedLen := func(f *Frame) int {
		var buf bytes.Buffer
		bc := newBinConn(bufio.NewReader(&buf), &buf)
		if err := bc.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
		if err := bc.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	thinned := encodedLen(&Frame{Type: FrameReplies, Msgs: resp.Msgs})
	unthinned := encodedLen(&Frame{Type: FrameReplies, Msgs: thresholds})
	if thinned*8 >= unthinned {
		t.Fatalf("thinning saved too little: %d bytes vs %d unthinned", thinned, unthinned)
	}
	t.Logf("replies frame: %d bytes thinned vs %d unthinned (%.1fx)", thinned, unthinned, float64(unthinned)/float64(thinned))
}

// perCopyCoordinator answers every offer with threshold refreshes for two
// sampler copies — the sampling-with-replacement reply shape.
type perCopyCoordinator struct{}

func (perCopyCoordinator) OnMessage(msg netsim.Message, _ int64, out *netsim.Outbox) {
	out.ToSite(msg.From, netsim.Message{Kind: netsim.KindThreshold, U: 0.5, Copy: 1})
	out.ToSite(msg.From, netsim.Message{Kind: netsim.KindThreshold, U: 0.25, Copy: 2})
}
func (perCopyCoordinator) OnSlotEnd(int64, *netsim.Outbox) {}
func (perCopyCoordinator) Sample() []netsim.SampleEntry    { return nil }

// TestReplyThinningKeepsDistinctCopies guards the thinning rule's scope:
// threshold refreshes for different sampler copies (sampling with
// replacement keeps one threshold per copy) are distinct state and must all
// survive; only runs within one copy collapse.
func TestReplyThinningKeepsDistinctCopies(t *testing.T) {
	srv := NewCoordinatorServer(perCopyCoordinator{})
	defer srv.Close()
	fc := srv.ServeMem()
	defer fc.Close()
	if err := writeFlush(fc, &Frame{Type: FrameHello, Site: 0}); err != nil {
		t.Fatal(err)
	}
	batch := []BatchEntry{
		{Msg: netsim.Message{Kind: netsim.KindOffer, Key: "a", Hash: 0.1}},
		{Msg: netsim.Message{Kind: netsim.KindOffer, Key: "b", Hash: 0.2}},
	}
	if err := writeFlush(fc, &Frame{Type: FrameBatch, Batch: batch}); err != nil {
		t.Fatal(err)
	}
	var resp Frame
	if err := fc.ReadFrame(&resp); err != nil {
		t.Fatal(err)
	}
	// Two offers × two per-copy refreshes: the copy-1/copy-2 alternation
	// never coalesces (adjacent replies always differ in Copy), and the
	// repeat of each copy's refresh for the second offer IS identical to a
	// non-adjacent earlier one, which must still be delivered in order.
	if len(resp.Msgs) != 4 {
		t.Fatalf("per-copy thresholds thinned to %d replies, want all 4: %+v", len(resp.Msgs), resp.Msgs)
	}
	for i, m := range resp.Msgs {
		if want := i%2 + 1; m.Copy != want {
			t.Fatalf("reply %d has copy %d, want %d", i, m.Copy, want)
		}
	}
}

// TestMemConnEndToEnd reruns the infinite-window deployment over the
// in-memory frameConn backend: k concurrent pipelined sites, no sockets,
// same oracle-exactness and accounting guarantees as the TCP tests.
func TestMemConnEndToEnd(t *testing.T) {
	const (
		k    = 4
		s    = 16
		seed = 9
	)
	hasher := hashing.NewMurmur2(seed)
	elements := dataset.Uniform(6000, 1200, seed).Generate()
	arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))

	srv := NewCoordinatorServer(core.NewInfiniteCoordinator(s))
	defer srv.Close()

	perSite := make([][]stream.Arrival, k)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}
	var wg sync.WaitGroup
	errs := make(chan error, k)
	clients := make([]*SiteClient, k)
	for site := 0; site < k; site++ {
		opts := Options{BatchSize: 1 << (site % 3), Window: site} // one-frame and deeper windows
		client, err := DialSiteMem(core.NewInfiniteSite(site, hasher), srv, opts)
		if err != nil {
			t.Fatal(err)
		}
		clients[site] = client
		wg.Add(1)
		go func(site int, client *SiteClient) {
			defer wg.Done()
			for _, a := range perSite[site] {
				if err := client.Observe(a.Key, a.Slot); err != nil {
					errs <- err
					return
				}
			}
			errs <- client.Flush()
		}(site, client)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	oracle := core.NewReference(s, hasher)
	oracle.ObserveAll(stream.Keys(elements))
	if !oracle.SameSample(srv.Sample()) {
		t.Fatal("mem-conn sample does not match the oracle")
	}
	offers, replies, _ := srv.Stats()
	totalSent, totalReceived := 0, 0
	for _, c := range clients {
		totalSent += c.MessagesSent()
		totalReceived += c.MessagesReceived()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if offers != totalSent || replies != totalReceived {
		t.Fatalf("server saw %d offers / %d replies; clients sent %d / received %d",
			offers, replies, totalSent, totalReceived)
	}
}
