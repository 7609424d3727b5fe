package wire

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/sliding"
	"repro/internal/stream"
)

// TestPipelinedInfiniteWindowEndToEnd is the pipelined counterpart of
// TestTCPInfiniteWindowEndToEnd: several concurrent sites stream batches
// with up to Window in flight, and the coordinator's sample still matches
// the centralized oracle exactly, with consistent message accounting.
func TestPipelinedInfiniteWindowEndToEnd(t *testing.T) {
	const (
		k    = 5
		s    = 12
		seed = 6
	)
	hasher := hashing.NewMurmur2(seed)
	elements := dataset.Uniform(8000, 1500, seed).Generate()
	arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))

	srv, addr := startServer(t, core.NewInfiniteCoordinator(s))

	perSite := make([][]stream.Arrival, k)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}
	var wg sync.WaitGroup
	errs := make(chan error, k)
	clients := make([]*SiteClient, k)
	for site := 0; site < k; site++ {
		// Mix pipeline depths and batch sizes across sites, including
		// batch-size-1 pipelining (every offer its own sequenced frame).
		opts := Options{Codec: CodecBinary, BatchSize: 1 << (site % 4), Window: 2 + site}
		client, err := DialSiteOptions(core.NewInfiniteSite(site, hasher), addr, opts)
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
		t.Fatal("pipelined sample does not match the oracle")
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

// TestPipelinedSlidingWindowEndToEnd checks that EndSlot's window drain
// keeps slot boundaries exact for the expiry-driven sliding-window protocol
// even when batches stream asynchronously within a slot.
func TestPipelinedSlidingWindowEndToEnd(t *testing.T) {
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
		client, err := DialSiteOptions(sliding.NewSite(site, hasher, window, uint64(site)+1), addr,
			Options{Codec: CodecBinary, BatchSize: 8, Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		clients[site] = client
		defer client.Close()
	}

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
		t.Fatalf("pipelined sliding sample %q, want window minimum %q", sample[0].Key, bestKey)
	}
}

// TestOneFrameWindowMatchesSequentialEngine pins the transport to the
// paper's dialogue: with one frame in flight (Window 0 or 1) and one offer
// per frame, a site and a coordinator over TCP exchange exactly the messages
// the sequential engine of record counts, and the coordinator ends with the
// engine's sample. The window8 rows hold a deep window to the same count:
// each waits for its frame's ack before the next arrival, so every frame
// ships into an empty wire and must leave at once, not wait in the write
// buffer for the window to fill.
func TestOneFrameWindowMatchesSequentialEngine(t *testing.T) {
	const (
		s      = 16
		window = 40
	)
	infinite, slid := hashing.NewMurmur2(7), hashing.NewMurmur2(9)
	protocols := []struct {
		name     string
		elements []stream.Element
		site     func() netsim.SiteNode
		coord    func() netsim.CoordinatorNode
		endSlots bool // EndSlot at each slot boundary
	}{
		{"infinite", dataset.Uniform(20000, 4000, 7).Generate(),
			func() netsim.SiteNode { return core.NewInfiniteSite(0, infinite) },
			func() netsim.CoordinatorNode { return core.NewInfiniteCoordinator(s) }, false},
		{"sliding", stream.Reslot(dataset.Uniform(20000, 3000, 9).Generate(), 50),
			func() netsim.SiteNode { return sliding.NewSite(0, slid, window, 1) },
			func() netsim.CoordinatorNode { return sliding.NewCoordinator() }, true},
	}
	for _, p := range protocols {
		arrivals := distribute.Apply(p.elements, distribute.NewRoundRobin(1))
		runner := netsim.Runner{Sites: []netsim.SiteNode{p.site()}, Coordinator: p.coord()}
		want, err := runner.RunSequential(arrivals)
		if err != nil {
			t.Fatal(err)
		}
		for _, win := range []int{0, 1, 8} {
			t.Run(fmt.Sprintf("%s/binary/window%d", p.name, win), func(t *testing.T) {
				srv, addr := startServer(t, p.coord())
				client, err := DialSiteOptions(p.site(), addr, Options{BatchSize: 1, Window: win})
				if err != nil {
					t.Fatal(err)
				}
				sent := 0
				for i, a := range arrivals {
					if err := client.Observe(a.Key, a.Slot); err != nil {
						t.Fatal(err)
					}
					if p.endSlots && (i+1 == len(arrivals) || arrivals[i+1].Slot != a.Slot) {
						if err := client.EndSlot(a.Slot); err != nil {
							t.Fatal(err)
						}
					}
					if win <= 1 || client.MessagesSent() == sent {
						continue
					}
					sent = client.MessagesSent()
					if !waitPipe(client, 5*time.Second, func(pl *pipeline) bool { return pl.inflight() == 0 }) {
						t.Fatalf("arrival %d: the frame it shipped into an empty wire was not acked within 5s", i)
					}
				}
				if err := client.Close(); err != nil {
					t.Fatal(err)
				}
				if got := client.MessagesSent(); got != want.UpMessages {
					t.Errorf("sent %d messages, the engine sent %d", got, want.UpMessages)
				}
				if got := client.MessagesReceived(); got != want.DownMessages {
					t.Errorf("received %d messages, the engine delivered %d", got, want.DownMessages)
				}
				if got := srv.Sample(); !reflect.DeepEqual(got, want.FinalSample) {
					t.Errorf("coordinator sample differs from the engine's:\n got: %v\nwant: %v", got, want.FinalSample)
				}
			})
		}
	}
}

// TestBoundedSiteMatchesSequentialEngine pins the bounded site to the paper's
// zero-delay protocol at every batch size and window: a free-running bounded
// site over TCP sends exactly the offers the sequential engine counts, and
// the coordinator ends with the engine's sample, the exact bottom-s. The key
// with the s-th smallest hash arrives last, when the s-1 keys below it sit in
// the site's memo, so a bound of rank s-1 would drop it. A site without the
// bound filters against u = 1 until its first frame's ack returns, and
// against a lagging u after that; its row records how many more offers that
// costs.
func TestBoundedSiteMatchesSequentialEngine(t *testing.T) {
	const s = 16
	hasher := hashing.NewMurmur2(7)
	elements := dataset.Uniform(50000, 8000, 7).Generate()
	ref := core.NewReference(s, hasher)
	ref.ObserveAll(stream.Keys(elements))
	elements = lastArrivals(elements, map[string]bool{ref.SampleKeys()[s-1]: true})
	arrivals := distribute.Apply(elements, distribute.NewRoundRobin(1))
	runner := netsim.Runner{Sites: []netsim.SiteNode{core.NewInfiniteSite(0, hasher)}, Coordinator: core.NewInfiniteCoordinator(s)}
	want, err := runner.RunSequential(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.FinalSample, ref.Sample()) {
		t.Fatal("the engine's sample differs from the reference")
	}
	type row struct {
		batch, window int
		bounded       bool
	}
	rows := []row{{64, 8, false}}
	for _, batch := range []int{1, 16, 64} {
		for _, window := range []int{1, 8} {
			rows = append(rows, row{batch, window, true})
		}
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("batch%d/window%d/bounded=%v", r.batch, r.window, r.bounded), func(t *testing.T) {
			srv, addr := startServer(t, core.NewInfiniteCoordinator(s))
			site := core.NewInfiniteSite(0, hasher)
			if r.bounded {
				site = core.NewBoundedInfiniteSite(0, hasher, s)
			}
			client, err := DialSiteOptions(site, addr, Options{BatchSize: r.batch, Window: r.window})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range arrivals {
				if err := client.Observe(a.Key, a.Slot); err != nil {
					t.Fatal(err)
				}
			}
			if err := client.Close(); err != nil {
				t.Fatal(err)
			}
			if got := srv.Sample(); !reflect.DeepEqual(got, want.FinalSample) {
				t.Errorf("coordinator sample differs from the engine's:\n got: %v\nwant: %v", got, want.FinalSample)
			}
			sent := client.MessagesSent()
			if !r.bounded {
				// Its first frame alone carries 64 offers, all filtered
				// against u = 1: more than the engine sends for the same
				// arrivals.
				t.Logf("unbounded site sent %d offers, the engine %d", sent, want.UpMessages)
				if sent <= want.UpMessages {
					t.Errorf("unbounded site sent %d offers, no more than the engine's %d", sent, want.UpMessages)
				}
				return
			}
			if sent != want.UpMessages {
				t.Errorf("bounded site sent %d offers, the engine sent %d", sent, want.UpMessages)
			}
		})
	}
}

// lastArrivals returns the stream with every occurrence of the keys in last
// moved to its end, each position keeping its slot.
func lastArrivals(elements []stream.Element, last map[string]bool) []stream.Element {
	var head, tail []stream.Element
	for _, e := range elements {
		if last[e.Key] {
			tail = append(tail, e)
		} else {
			head = append(head, e)
		}
	}
	out := append(head, tail...)
	for i := range out {
		out[i].Slot = elements[i].Slot
	}
	return out
}

// waitPipe blocks until done holds for c's pipeline or the pipeline fails,
// giving up after d, and reports whether done held. done runs under c.mu and
// is re-checked at every ack and failure, which broadcast the pipeline's
// condition variable.
func waitPipe(c *SiteClient, d time.Duration, done func(*pipeline) bool) bool {
	expired := false
	timer := time.AfterFunc(d, func() {
		c.mu.Lock()
		expired = true
		c.pipe.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !done(&c.pipe) && c.pipe.err == nil && !expired {
		c.pipe.cond.Wait()
	}
	return done(&c.pipe)
}

// TestPipelinedAtLeast1_3xSyncBatched is the perf acceptance check of deep
// credit windows, mirroring TestBatchedBinaryAtLeast3xPerOffer: streaming
// batches of 64 offers with a window of DefaultWindow must beat the
// one-frame window, the request/response dialogue, by at least 1.3x on
// localhost. The two legs alternate over several rounds and their medians
// are compared, so a burst of load from other processes during one leg
// cannot decide the outcome on its own.
func TestPipelinedAtLeast1_3xSyncBatched(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation penalizes the mutex-heavy pipelined path; ratio only meaningful uninstrumented")
	}
	const n, batch, rounds = 200000, 64, 5
	var syncRuns, pipeRuns []float64
	for range rounds {
		syncRuns = append(syncRuns, offerThroughput(t, n, Options{Codec: CodecBinary, BatchSize: batch}))
		pipeRuns = append(pipeRuns, offerThroughput(t, n, Options{Codec: CodecBinary, BatchSize: batch, Window: DefaultWindow}))
	}
	slices.Sort(syncRuns)
	slices.Sort(pipeRuns)
	syncOps, pipeOps := syncRuns[rounds/2], pipeRuns[rounds/2]
	t.Logf("sync binary batch=%d: %.0f offers/s; pipelined window=%d: %.0f offers/s (%.2fx, medians of %d rounds)",
		batch, syncOps, DefaultWindow, pipeOps, pipeOps/syncOps, rounds)
	if pipeOps < 1.3*syncOps {
		t.Fatalf("pipelined %.0f offers/s is less than 1.3x sync batched %.0f offers/s", pipeOps, syncOps)
	}
}

// TestPipelinedRejectsBadSequence runs a misbehaving coordinator that echoes
// the wrong sequence number; the client must refuse the reply and surface a
// sequencing error instead of mismatching replies to batches. The
// coordinator answers only once Observe has returned, so the error reaches
// the client while Flush waits for the ack, never during Observe's ship.
func TestPipelinedRejectsBadSequence(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	observed := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fc, err := serverConn(conn)
		if err != nil {
			return
		}
		var f Frame
		for {
			if err := fc.ReadFrame(&f); err != nil {
				return
			}
			if f.Type != FrameBatch {
				continue // swallow the hello
			}
			// Echo a sequence number the client never sent.
			<-observed
			_ = writeFlush(fc, &Frame{Type: FrameReplies, Seq: f.Seq + 5})
		}
	}()

	client, err := DialSiteOptions(&floodSite{id: 0, hasher: hashing.NewMurmur2(1)}, ln.Addr().String(),
		Options{Codec: CodecBinary, BatchSize: 1, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	err = client.Observe("x", 0) // ships the batch
	close(observed)
	if err != nil {
		t.Fatal(err)
	}
	err = client.Flush()
	if err == nil || !strings.Contains(err.Error(), "sequence") {
		t.Fatalf("expected a reply-sequence error, got %v", err)
	}
}

// gatedCoordinator blocks every message until the gate channel is closed,
// simulating a coordinator that has stopped keeping up.
type gatedCoordinator struct {
	netsim.CoordinatorNode
	gate chan struct{}
}

func (g *gatedCoordinator) OnMessage(msg netsim.Message, slot int64, out *netsim.Outbox) {
	<-g.gate
	g.CoordinatorNode.OnMessage(msg, slot, out)
}

// silentCoordinator runs a coordinator node and drops its replies, so every
// batch frame is answered by a bare ack.
type silentCoordinator struct {
	netsim.CoordinatorNode
}

func (s silentCoordinator) OnMessage(msg netsim.Message, slot int64, _ *netsim.Outbox) {
	var dropped netsim.Outbox
	s.CoordinatorNode.OnMessage(msg, slot, &dropped)
}

// TestHeldFramesLeaveAfterAck pins both halves of the batch-frame flush
// policy. While one frame is on the wire, the frames shipped behind it stay
// in the write buffer. Once its ack empties the wire, the writer's next call
// flushes them, even a call that ships nothing, and the coordinator acks
// them without a Flush and with the window never full. The replies are bare
// acks, so only the empty wire, not a reply to apply, can wake the writer.
func TestHeldFramesLeaveAfterAck(t *testing.T) {
	const batchSize, window = 2, 8
	gate := make(chan struct{})
	coord := &gatedCoordinator{CoordinatorNode: silentCoordinator{core.NewInfiniteCoordinator(16)}, gate: gate}
	_, addr := startServer(t, coord)
	client, err := DialSiteOptions(&floodSite{id: 0, hasher: hashing.NewMurmur2(3)}, addr,
		Options{BatchSize: batchSize, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	// Cleanups run last-registered first: the gate opens before the client
	// drains and the server closes, whichever check failed.
	var openGate sync.Once
	t.Cleanup(func() { openGate.Do(func() { close(gate) }) })
	buffered := func() int { return len(client.fc.(*binConn).wbuf) }
	observe := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := client.Observe(fmt.Sprintf("held-%d", i), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	shipped := func() uint64 {
		client.mu.Lock()
		defer client.mu.Unlock()
		return client.pipe.sendSeq
	}

	// Frame 0 ships into an empty wire and leaves at once; the closed gate
	// keeps its ack back. Frames 1-3 ship behind it: written, but held in
	// the write buffer.
	observe(0, 8)
	if frames, n := shipped(), buffered(); frames != 4 || n == 0 {
		t.Fatalf("behind a frame in flight: %d frames shipped, %d bytes buffered; want 4, the last 3 unflushed", frames, n)
	}

	openGate.Do(func() { close(gate) })
	if !waitPipe(client, 5*time.Second, func(p *pipeline) bool { return p.ackSeq >= 1 }) {
		t.Fatal("frame 0 was not acked within 5s of the gate opening")
	}
	if n := buffered(); n == 0 {
		t.Fatal("held frames left the write buffer before the writer's next call")
	}
	// Half a batch: this call ships no frame, yet it flushes the held ones.
	observe(8, 9)
	if n := buffered(); n != 0 {
		t.Fatalf("after the ack: %d bytes still buffered; want the held frames flushed", n)
	}
	if !waitPipe(client, 5*time.Second, func(p *pipeline) bool { return p.ackSeq == p.sendSeq }) {
		t.Fatal("the coordinator did not ack the released frames within 5s")
	}
	if sent := client.MessagesSent(); sent != 8 {
		t.Fatalf("sent %d offers, want 8 (four full frames)", sent)
	}
}

// TestPipelinedBackpressure checks the credit window's memory bound: with a
// stalled coordinator, the writer ships exactly Window batches and then
// blocks instead of buffering the whole stream. It runs over the in-memory
// frameConn backend, which removes TCP sockets and kernel-buffer timing from
// the picture: the writer must reach exactly window*batchSize shipped offers
// (polled, not slept for) and must not move past it.
func TestPipelinedBackpressure(t *testing.T) {
	const (
		window    = 2
		batchSize = 8
		total     = 400
	)
	gate := make(chan struct{})
	coord := &gatedCoordinator{CoordinatorNode: core.NewInfiniteCoordinator(16), gate: gate}
	srv := NewCoordinatorServer(coord)
	t.Cleanup(func() { _ = srv.Close() })

	hasher := hashing.NewMurmur2(11)
	client, err := DialSiteMem(&floodSite{id: 0, hasher: hasher}, srv,
		Options{BatchSize: batchSize, Window: window})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := client.Observe(fmt.Sprintf("bp-%d", i), 0); err != nil {
				done <- err
				return
			}
		}
		done <- client.Flush()
	}()

	// The writer must ship exactly a full window and then stall. Poll until
	// it gets there (deterministic: it cannot stop short of the window with
	// the stream this long), then hold a moment to catch any overrun.
	deadline := time.Now().Add(5 * time.Second)
	for client.MessagesSent() != window*batchSize {
		if time.Now().After(deadline) {
			t.Fatalf("writer stalled at %d offers; want a full window of %d", client.MessagesSent(), window*batchSize)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("ingest finished against a stalled coordinator (err=%v); the window did not block", err)
	default:
	}
	if sent := client.MessagesSent(); sent != window*batchSize {
		t.Fatalf("writer shipped %d offers against a stalled coordinator; the window allows exactly %d",
			sent, window*batchSize)
	}

	close(gate) // coordinator catches up; everything drains
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if sent := client.MessagesSent(); sent != total {
		t.Fatalf("sent %d offers after drain, want %d", sent, total)
	}
}

// TestPipelinedMidStreamDisconnect kills the connection with batches in
// flight behind a stalled coordinator: Flush and Close must surface an error
// promptly instead of hanging on replies that will never come.
func TestPipelinedMidStreamDisconnect(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate) // unblock the server handler so Close can reap it
	coord := &gatedCoordinator{CoordinatorNode: core.NewInfiniteCoordinator(16), gate: gate}
	_, addr := startServer(t, coord)

	client, err := DialSiteOptions(&floodSite{id: 0, hasher: hashing.NewMurmur2(13)}, addr,
		Options{Codec: CodecBinary, BatchSize: 2, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Fill part of the window (batches in flight, none acknowledged).
	for i := 0; i < 6; i++ {
		if err := client.Observe(fmt.Sprintf("dc-%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	client.conn.Close() // the network goes away mid-stream

	errCh := make(chan error, 1)
	go func() { errCh <- client.Flush() }()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("expected Flush to fail after a mid-stream disconnect")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush hung after a mid-stream disconnect")
	}
	if err := client.Close(); err == nil {
		t.Fatal("expected Close to report the pipeline failure")
	}
}

// ownedSite wraps a site node and counts the replies that reach it on a
// goroutine other than its owner's.
type ownedSite struct {
	netsim.SiteNode
	owner   uint64
	replies atomic.Int64
	foreign atomic.Int64
}

func (o *ownedSite) OnMessage(msg netsim.Message, slot int64, out *netsim.Outbox) {
	o.replies.Add(1)
	if goroutineID() != o.owner {
		o.foreign.Add(1)
	}
	o.SiteNode.OnMessage(msg, slot, out)
}

// goroutineID returns the calling goroutine's id, parsed from the
// "goroutine N [...]" header of its stack trace.
func goroutineID() uint64 {
	var buf [64]byte
	header := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, err := strconv.ParseUint(header[1], 10, 64)
	if err != nil {
		panic("unparseable goroutine header: " + strings.Join(header, " "))
	}
	return id
}

// TestPipelineReaderNeverCallsNode pins the ownership contract of pipelined
// mode: the reader goroutine queues replies and the caller's goroutine feeds
// them into the site node, so the node never runs on two goroutines.
func TestPipelineReaderNeverCallsNode(t *testing.T) {
	hasher := hashing.NewMurmur2(31)
	srv, addr := startServer(t, core.NewInfiniteCoordinator(4))
	node := &ownedSite{SiteNode: core.NewInfiniteSite(0, hasher), owner: goroutineID()}
	client, err := DialSiteOptions(node, addr, Options{Codec: CodecBinary, BatchSize: 1, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewReference(4, hasher)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("owned-%d", i)
		oracle.Observe(key)
		if err := client.Observe(key, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	replies := node.replies.Load()
	if replies == 0 {
		t.Fatal("no reply reached the site node")
	}
	if foreign := node.foreign.Load(); foreign != 0 {
		t.Fatalf("%d of %d replies reached the node on another goroutine", foreign, replies)
	}
	if !oracle.SameSample(srv.Sample()) {
		t.Fatal("sample differs from the reference")
	}
}

// TestUnackedAppliesQueuedReplies: replies the reader queued after the
// caller's last call reach the node in Unacked, so failover hands a fresh
// connection a node whose threshold is as current as the coordinator's.
func TestUnackedAppliesQueuedReplies(t *testing.T) {
	hasher := hashing.NewMurmur2(5)
	coord := core.NewInfiniteCoordinator(2)
	srv, addr := startServer(t, coord)
	site := core.NewInfiniteSite(0, hasher)
	client, err := DialSiteOptions(site, addr, Options{Codec: CodecBinary, BatchSize: 1, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := client.Observe(fmt.Sprintf("unacked-%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Put the batches still in the write buffer on the wire, without the
	// drain's wait (which would apply the replies). Every offer answers with
	// one threshold reply; wait until all of them have been received:
	// queued, not yet applied.
	if err := client.ship(true); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for client.MessagesReceived() != client.MessagesSent() {
		if time.Now().After(deadline) {
			t.Fatalf("received %d replies for %d offers", client.MessagesReceived(), client.MessagesSent())
		}
		time.Sleep(time.Millisecond)
	}
	if err := client.Abort(); err != nil {
		t.Fatal(err)
	}
	client.Unacked()
	srv.mu.Lock()
	want := coord.Threshold()
	srv.mu.Unlock()
	if got := site.Threshold(); got != want {
		t.Fatalf("site threshold after Unacked = %v, coordinator's = %v", got, want)
	}
}
