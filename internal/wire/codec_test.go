package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"

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
		{Type: FrameHello, Site: 2, SampleSize: 64},
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

// decodeAll reads frames from c until an error and returns them with that
// error.
func decodeAll(c *binConn) ([]Frame, error) {
	var frames []Frame
	for {
		var f Frame
		if err := c.ReadFrame(&f); err != nil {
			return frames, err
		}
		frames = append(frames, f)
	}
}

// writeRecorder counts the Write calls it takes and keeps the bytes it
// accepts. Each call accepts at most accept bytes (all when accept < 0) and
// returns err.
type writeRecorder struct {
	accept, calls, written int
	err                    error
	got                    bytes.Buffer
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.calls++
	n := len(p)
	if w.accept >= 0 && n > w.accept {
		n = w.accept
	}
	w.written += n
	w.got.Write(p[:n])
	return n, w.err
}

// TestConnBuffers checks a connection's own buffers at their edges: streams
// that arrive in pieces, a frame larger than connBufMax, streams cut between
// and inside frames, a write buffer that reaches connBufMax, and a failed
// write.
func TestConnBuffers(t *testing.T) {
	corpus := corpusFrames()
	var stream []byte
	ends := make([]int, len(corpus)) // each frame's end offset in stream
	for i, fr := range corpus {
		stream = append(stream, encodeFrames(t, fr)...)
		ends[i] = len(stream)
	}

	t.Run("chunked", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			r    io.Reader
		}{
			{"one-byte", iotest.OneByteReader(bytes.NewReader(stream))},
			{"half", iotest.HalfReader(bytes.NewReader(stream))},
			{"whole", bytes.NewReader(stream)},
		} {
			frames, err := decodeAll(newBinConn(tc.r, io.Discard))
			if err != io.EOF {
				t.Fatalf("%s reads: the stream ended in %v, want io.EOF", tc.name, err)
			}
			if len(frames) != len(corpus) {
				t.Fatalf("%s reads: %d frames, want %d", tc.name, len(frames), len(corpus))
			}
			for i := range corpus {
				if !framesEquivalent(&frames[i], &corpus[i]) {
					t.Fatalf("%s reads: frame %d differs:\n got: %+v\nwant: %+v", tc.name, i, frames[i], corpus[i])
				}
			}
		}
		// A read that fills the buffer doubles it, up to connBufMax; reads
		// that never fill it leave it as it started.
		long := bytes.Repeat(stream, 4*connBufMax/len(stream))
		for _, tc := range []struct {
			name string
			r    io.Reader
			want int
		}{
			{"one-byte", iotest.OneByteReader(bytes.NewReader(long)), connBufInit},
			{"whole", bytes.NewReader(long), connBufMax},
		} {
			c := newBinConn(tc.r, io.Discard)
			if _, err := decodeAll(c); err != io.EOF {
				t.Fatalf("%s reads of %d B: the stream ended in %v, want io.EOF", tc.name, len(long), err)
			}
			if len(c.rbuf) != tc.want {
				t.Fatalf("%s reads of %d B: read buffer of %d B, want %d", tc.name, len(long), len(c.rbuf), tc.want)
			}
		}
	})

	t.Run("oversized over TCP", func(t *testing.T) {
		const n = 12000
		entries := make([]netsim.SampleEntry, n)
		for i := range entries {
			entries[i] = netsim.SampleEntry{Key: fmt.Sprintf("oversized-%05d", i), Hash: float64(i+1) / (n + 1)}
		}
		encoded := infiniteState(n, entries...)
		if len(encoded) < 4*connBufMax {
			t.Fatalf("state of %d B; want one over %d B", len(encoded), 4*connBufMax)
		}
		_, addr := startServer(t, core.NewInfiniteCoordinator(n))
		c, err := DialSync(addr, CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.SyncFrame(0, 1, 0, encoded); err != nil {
			t.Fatal(err)
		}
		st, _, _, err := c.FetchState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(core.EncodeState(st), encoded) {
			t.Fatalf("a %d B state did not round-trip", len(encoded))
		}
	})

	t.Run("announced, not sent", func(t *testing.T) {
		// A length prefix announces a frame of nearly maxFrameSize and the
		// stream ends there: the read buffer grows with the bytes that
		// arrived, not with the announced length.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := newBinConn(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0x00}), io.Discard)
		var f Frame
		err := c.ReadFrame(&f)
		runtime.ReadMemStats(&after)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("the stream ended in %v, want io.ErrUnexpectedEOF", err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
			t.Fatalf("a 4-byte stream allocated %d B, want under %d", n, 64<<10)
		}
	})

	t.Run("cut", func(t *testing.T) {
		for cut := 0; cut < len(stream); cut++ {
			whole, start := 0, 0 // frames that end at or before the cut; the next one's offset
			for whole < len(ends) && ends[whole] <= cut {
				start = ends[whole]
				whole++
			}
			want := io.ErrUnexpectedEOF // cut inside a length prefix or a payload
			if cut == start {
				want = io.EOF // cut between frames
			}
			frames, err := decodeAll(newBinConn(bytes.NewReader(stream[:cut]), io.Discard))
			if len(frames) != whole || err != want {
				t.Fatalf("stream cut at byte %d: %d frames, then %v; want %d, then %v", cut, len(frames), err, whole, want)
			}
		}
	})

	t.Run("write-through", func(t *testing.T) {
		w := &writeRecorder{accept: -1}
		c := newBinConn(nil, w)
		f := benchBatchFrame()
		pending := 0
		for w.calls == 0 {
			if err := c.WriteFrame(f); err != nil {
				t.Fatal(err)
			}
			if w.calls == 0 {
				pending = len(c.wbuf)
			}
		}
		if pending >= connBufMax || w.calls != 1 || w.written < connBufMax || len(c.wbuf) != 0 {
			t.Fatalf("%d B pending, then %d writes of %d B leaving %d B; want one write once the buffer reaches %d B, and nothing left",
				pending, w.calls, w.written, len(c.wbuf), connBufMax)
		}
	})

	t.Run("failed flush", func(t *testing.T) {
		boom := errors.New("boom")
		for _, tc := range []struct {
			name string
			w    *writeRecorder
			want error
		}{
			{"error", &writeRecorder{accept: 0, err: boom}, boom},
			{"short write", &writeRecorder{accept: 3}, io.ErrShortWrite},
		} {
			c := newBinConn(nil, tc.w)
			hello := Frame{Type: FrameHello, Site: 1}
			if err := c.WriteFrame(&hello); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if err := c.Flush(); err != tc.want {
				t.Fatalf("%s: Flush returned %v, want %v", tc.name, err, tc.want)
			}
			calls, written := tc.w.calls, tc.w.written
			if err := c.WriteFrame(&hello); err != tc.want {
				t.Fatalf("%s: WriteFrame after the failed Flush returned %v, want %v", tc.name, err, tc.want)
			}
			if err := c.Flush(); err != tc.want {
				t.Fatalf("%s: a second Flush returned %v, want %v", tc.name, err, tc.want)
			}
			if tc.w.calls != calls || tc.w.written != written {
				t.Fatalf("%s: %d more writes of %d B after the failed Flush, want none", tc.name, tc.w.calls-calls, tc.w.written-written)
			}
		}
	})
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
