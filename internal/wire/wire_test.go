package wire

import (
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/sliding"
	"repro/internal/stream"
)

// startServer spins up a coordinator server on a random localhost port and
// returns its address plus a cleanup function.
func startServer(t *testing.T, node netsim.CoordinatorNode) (*CoordinatorServer, string) {
	t.Helper()
	srv := NewCoordinatorServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, addr
}

func TestTCPInfiniteWindowEndToEnd(t *testing.T) {
	const (
		k    = 5
		s    = 12
		seed = 6
	)
	hasher := hashing.NewMurmur2(seed)
	elements := dataset.Uniform(8000, 1500, seed).Generate()
	arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))

	srv, addr := startServer(t, core.NewInfiniteCoordinator(s))

	// One client (and goroutine) per site, each processing its own share of
	// the stream — a real deployment shape.
	perSite := make([][]stream.Arrival, k)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}
	var wg sync.WaitGroup
	errs := make(chan error, k)
	clients := make([]*SiteClient, k)
	for site := 0; site < k; site++ {
		client, err := DialSiteOptions(core.NewInfiniteSite(site, hasher), addr, Options{})
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
		}(site, client)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The coordinator's sample over TCP equals the centralized oracle's.
	oracle := core.NewReference(s, hasher)
	oracle.ObserveAll(stream.Keys(elements))
	if !oracle.SameSample(srv.Sample()) {
		t.Fatalf("TCP-deployed sample does not match the oracle")
	}

	// The query interface returns the same sample.
	queried, err := QueryWith(addr, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.SameSample(queried) {
		t.Fatal("queried sample does not match the oracle")
	}

	// Message accounting is consistent between server and clients.
	offers, replies, queries := srv.Stats()
	totalSent, totalReceived := 0, 0
	for _, c := range clients {
		totalSent += c.MessagesSent()
		totalReceived += c.MessagesReceived()
		_ = c.Close()
	}
	if offers != totalSent || replies != totalReceived {
		t.Fatalf("server saw %d offers / %d replies; clients sent %d / received %d",
			offers, replies, totalSent, totalReceived)
	}
	if offers == 0 || queries != 1 {
		t.Fatalf("implausible stats: offers=%d queries=%d", offers, queries)
	}
}

func TestTCPSlidingWindowEndToEnd(t *testing.T) {
	const (
		k      = 3
		window = 50
		seed   = 17
	)
	hasher := hashing.NewMurmur2(seed)
	elements := stream.Reslot(dataset.Uniform(3000, 600, seed).Generate(), 5)
	arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))
	stream.SortArrivals(arrivals)
	maxSlot := arrivals[len(arrivals)-1].Slot

	_, addr := startServer(t, sliding.NewCoordinator())

	clients := make([]*SiteClient, k)
	for site := 0; site < k; site++ {
		client, err := DialSiteOptions(sliding.NewSite(site, hasher, window, uint64(site)+1), addr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		clients[site] = client
		defer client.Close()
	}

	// Drive slot by slot: deliver the slot's arrivals to each site's client,
	// then signal the end of the slot (the sliding protocol needs it for
	// expiry-driven promotion). Sites run sequentially here; concurrency is
	// covered by the infinite-window test above.
	idx := 0
	for slot := arrivals[0].Slot; slot <= maxSlot; slot++ {
		for idx < len(arrivals) && arrivals[idx].Slot == slot {
			a := arrivals[idx]
			idx++
			if err := clients[a.Site].Observe(a.Key, slot); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range clients {
			if err := c.EndSlot(slot); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The final sample is the minimum-hash element of the last window.
	sample, err := QueryWith(addr, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != 1 {
		t.Fatalf("sample size %d, want 1", len(sample))
	}
	live := stream.WindowDistinct(arrivals, maxSlot, window)
	bestKey, bestHash := "", 2.0
	for key := range live {
		if u := hasher.Unit(key); u < bestHash {
			bestKey, bestHash = key, u
		}
	}
	if sample[0].Key != bestKey {
		t.Fatalf("TCP sliding sample %q, want window minimum %q", sample[0].Key, bestKey)
	}
}

func TestTCPRejectsBroadcastCoordinator(t *testing.T) {
	// Algorithm Broadcast cannot run over the request/response transport:
	// the first offer that changes u triggers a broadcast and the server
	// reports a protocol error to the site.
	hasher := hashing.NewMurmur2(3)
	_, addr := startServer(t, core.NewBroadcastCoordinator(1))
	client, err := DialSiteOptions(core.NewBroadcastSite(0, hasher), addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Observe("x", 0); err == nil || !strings.Contains(err.Error(), "coordinator error") {
		t.Fatalf("expected a coordinator error for a broadcasting algorithm, got %v", err)
	}
}

func TestTCPProtocolErrors(t *testing.T) {
	_, addr := startServer(t, core.NewInfiniteCoordinator(2))

	send := func(f Frame) Frame {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fc := clientConn(conn)
		if err := writeFlush(fc, &f); err != nil {
			t.Fatal(err)
		}
		var resp Frame
		if err := fc.ReadFrame(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Batch before hello.
	resp := send(Frame{Type: FrameBatch, Batch: []BatchEntry{{Msg: netsim.Message{Kind: netsim.KindOffer, Key: "x", Hash: 0.5}}}})
	if resp.Type != FrameError || resp.errCode != errGeneric {
		t.Fatalf("expected a generic error frame, got %+v", resp)
	}
	// A frame only a coordinator sends reaches the server's unknown-type
	// branch.
	resp = send(Frame{Type: FrameReplies})
	if resp.Type != FrameError || resp.errCode != errGeneric {
		t.Fatalf("expected a generic error frame, got %+v", resp)
	}
	// Dialing a dead address fails cleanly.
	if _, err := DialSiteOptions(core.NewInfiniteSite(0, hashing.NewMurmur2(1)), "127.0.0.1:1", Options{}); err == nil {
		t.Fatal("expected dial error")
	}
	if _, err := QueryWith("127.0.0.1:1", CodecBinary); err == nil {
		t.Fatal("expected query dial error")
	}
}

func TestCoordinatorServerCloseIdempotent(t *testing.T) {
	srv := NewCoordinatorServer(core.NewInfiniteCoordinator(1))
	if err := srv.Close(); err != nil {
		t.Fatalf("closing an unstarted server should be a no-op, got %v", err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil || addr == "" {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
