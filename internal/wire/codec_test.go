package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/stream"
)

// pipeBin builds a binary frameConn pair over an in-memory pipe.
func pipeBin(t *testing.T) (client, server frameConn, cleanup func()) {
	t.Helper()
	c, s := net.Pipe()
	// net.Pipe is synchronous: run reads and writes from different
	// goroutines in the tests.
	clientConn := newBinConn(bufio.NewReader(c), c)
	serverConn := newBinConn(bufio.NewReader(s), s)
	return clientConn, serverConn, func() { c.Close(); s.Close() }
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameHello, Site: 7},
		{Type: FrameBatch, Batch: []BatchEntry{{Slot: -3, Msg: netsim.Message{
			Kind: netsim.KindOffer, Key: "alpha", Hash: 0.125, U: 0.5, Expiry: 42, Copy: 3, From: -1,
		}}}},
		{Type: FrameReplies, Seq: 41, Msgs: []netsim.Message{
			{Kind: netsim.KindThreshold, U: 0.25, From: netsim.CoordinatorID},
			{Kind: netsim.KindWindowSample, Key: "beta", Hash: 0.75, Expiry: 9},
		}},
		{Type: FrameQuery},
		{Type: FrameSample, Entries: []netsim.SampleEntry{
			{Key: "k1", Hash: 0.01, Expiry: 100},
			{Key: "", Hash: 0.99},
		}},
		{Type: FrameError, Error: "boom"},
		{Type: FrameError, Error: "fenced", errCode: errLeaseLapsed},
		{Type: FrameBatch, Seq: 7, Batch: []BatchEntry{
			{Slot: 1, Msg: netsim.Message{Kind: netsim.KindOffer, Key: "x", Hash: 0.5}},
			{Slot: 2, Msg: netsim.Message{Kind: netsim.KindWindowOffer, Key: "y", Hash: 0.25, Expiry: 11}},
		}},
		{Type: FrameReplies}, // empty replies round-trip too
		// State frames: full metadata with a negative slot, and the empty
		// frame.
		{Type: FrameState, Epoch: 3, Seq: 99, Slot: -7, State: infiniteState(4,
			netsim.SampleEntry{Key: "r1", Hash: 0.03, Expiry: 5},
			netsim.SampleEntry{Key: "r2", Hash: 0.0625},
		), TraceID: 11, SpanID: 12, TraceFlags: 1},
		{Type: FrameState},
		{Type: FrameStateAck, Epoch: 2, Seq: 17},
		{Type: FramePromote, Epoch: 4},
	}
	client, server, cleanup := pipeBin(t)
	defer cleanup()
	done := make(chan error, 1)
	go func() {
		for i := range frames {
			f := frames[i]
			if err := client.WriteFrame(&f); err != nil {
				done <- err
				return
			}
			if err := client.Flush(); err != nil { // WriteFrame only buffers
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := range frames {
		var got Frame
		if err := server.ReadFrame(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, frames[i]) {
			t.Fatalf("frame %d round-trip mismatch:\n got: %+v\nwant: %+v", i, got, frames[i])
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// legacyFrames returns well-formed payloads of the two retired flat-sample
// frames, in the layout their decoders read: a state-sync (code 0x08: epoch,
// seq, slot, u, entries) and a range-handoff over the full routing space
// (code 0x0c: seq, lo, hi, u, entries), each carrying the one entry "ghost".
// Decoders that knew the codes applied them; the codes are never reused, so
// both must now be rejected as unknown.
func legacyFrames() (stateSync, rangeHandoff []byte) {
	entries := appendString([]byte{1}, "ghost")
	entries = binary.LittleEndian.AppendUint64(entries, math.Float64bits(0.01))
	entries = binary.AppendVarint(entries, 0)
	u := math.Float64bits(1)
	stateSync = binary.LittleEndian.AppendUint64([]byte{0x08, 0, 0, 0}, u)
	rangeHandoff = binary.LittleEndian.AppendUint64(append([]byte{0x0c, 0}, make([]byte, 16)...), u)
	return append(stateSync, entries...), append(rangeHandoff, entries...)
}

// retiredOffer returns a well-formed payload of the retired one-message offer
// frame (code 0x02: slot, message), offering key at hash 0.001. Decoders that
// knew the code applied it; the code is never reused, so it must now be
// rejected as unknown.
func retiredOffer(key string) []byte {
	return appendMessage([]byte{0x02, 0}, netsim.Message{Kind: netsim.KindOffer, Key: key, Hash: 0.001})
}

// lengthPrefixed frames a binary payload with its uint32 length prefix.
func lengthPrefixed(payload []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

func TestBinaryCodecRejectsCorruptInput(t *testing.T) {
	corrupt := [][]byte{
		{},                       // empty
		{0x05, 0x00, 0x00},       // truncated length prefix
		{0x00, 0x00, 0x00, 0x00}, // zero-length frame
		append(binary.LittleEndian.AppendUint32(nil, uint32(maxFrameSize+1)), 0x01), // oversized
		append(binary.LittleEndian.AppendUint32(nil, 1), 0x7f),                      // unknown frame code
		append(binary.LittleEndian.AppendUint32(nil, 3), binBatch, 0x00, 0x01),      // truncated batch
		// replies frame claiming far more messages than the payload holds
		append(binary.LittleEndian.AppendUint32(nil, 3), binReplies, 0xff, 0x7f),
	}
	// Retired codes: well-formed legacy offer, state-sync and range-handoff
	// frames.
	stateSync, rangeHandoff := legacyFrames()
	corrupt = append(corrupt, lengthPrefixed(retiredOffer("ghost")), lengthPrefixed(stateSync), lengthPrefixed(rangeHandoff))
	for i, raw := range corrupt {
		c := newBinConn(bufio.NewReader(bytes.NewReader(raw)), &bytes.Buffer{})
		var f Frame
		if err := c.ReadFrame(&f); err == nil {
			t.Fatalf("corrupt input %d decoded without error: %+v", i, f)
		}
	}
}

// TestBinaryBatchedEndToEnd re-runs the infinite-window end-to-end
// deployment with batching and checks the sample, and the queried sample,
// against the centralized oracle.
func TestBinaryBatchedEndToEnd(t *testing.T) {
	const (
		k    = 4
		s    = 16
		seed = 11
	)
	hasher := hashing.NewMurmur2(seed)
	elements := dataset.Uniform(6000, 1200, seed).Generate()
	arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))

	srv, addr := startServer(t, core.NewInfiniteCoordinator(s))

	perSite := make([][]stream.Arrival, k)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}
	var wg sync.WaitGroup
	errs := make(chan error, k)
	for site := 0; site < k; site++ {
		// Mix batch sizes on the same server: batching is per connection.
		opts := Options{BatchSize: 32}
		if site%2 == 1 {
			opts = Options{BatchSize: 4}
		}
		client, err := DialSiteOptions(core.NewInfiniteSite(site, hasher), addr, opts)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(site int, client *SiteClient) {
			defer wg.Done()
			for _, a := range perSite[site] {
				if err := client.Observe(a.Key, a.Slot); err != nil {
					errs <- err
					return
				}
			}
			errs <- client.Close() // Close flushes the partial batch
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
		t.Fatal("batched deployment diverged from the oracle")
	}
	queried, err := QueryWith(addr, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.SameSample(queried) {
		t.Fatalf("queried sample diverged from the oracle: %+v", queried)
	}
}

// TestServerRejectsBadPreamble covers the preamble check: a connection that
// does not open with binMagic is dropped without a response.
func TestServerRejectsBadPreamble(t *testing.T) {
	_, addr := startServer(t, core.NewInfiniteCoordinator(2))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("NOPE")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected the server to close a connection with a bad preamble")
	}
}
