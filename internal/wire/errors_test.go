package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
)

// TestMalformedFrames sends garbage at the server — the retired JSON codec's
// frames and older preambles among it — and checks that it drops the
// connection without taking the server down or applying any of it.
func TestMalformedFrames(t *testing.T) {
	srv, addr := startServer(t, core.NewInfiniteCoordinator(4))

	// A hello and a batch offering key, well formed in today's layout, behind
	// the preamble of an older layout: only the preamble keeps the key out of
	// the sample checked below.
	olderPreamble := func(version byte, key string) []byte {
		return append([]byte{'D', 'D', 'S', version}, encodeFrames(t,
			Frame{Type: FrameHello},
			Frame{Type: FrameBatch, Batch: []BatchEntry{{Msg: netsim.Message{Kind: netsim.KindOffer, Key: key, Hash: 0.001}}}})...)
	}
	garbage := [][]byte{
		[]byte("{\"type\":\"offer\",,,\n"),           // JSON-looking but unparsable
		[]byte("{\"type\": 12}\n{bad json"),          // valid JSON frame then broken stream
		append(binMagic[:], 0xff, 0xff, 0xff, 0x7f),  // absurd length
		append(binMagic[:], 2, 0, 0, 0, 0x7f, 0x00),  // unknown frame code
		{'D', 'D', 'S', '1', 2, 0, 0, 0, 0x02, 0x00}, // stale pre-pipelining peer: rejected at the preamble
		{'D', 'D', 'S', '2', 2, 0, 0, 0, 0x02, 0x00}, // pre-tracing layout: rejected at the preamble
		olderPreamble('3', "ghost-dds3"),             // uncoded error frames: rejected at the preamble
		olderPreamble('4', "ghost-dds4"),             // hello without a sample size: rejected at the preamble
		{'X', 'Y'},                                   // no preamble at all
		// Retired flat-sample state-sync in JSON: a server that still
		// applied it would put "ghost" into the sample checked below.
		[]byte(`{"type":"state-sync","entries":[{"Key":"ghost","Hash":0.01}]}` + "\n"),
	}
	// The same retired frames in binary (codes 0x08 and 0x0c).
	stateSync, rangeHandoff := legacyFrames()
	garbage = append(garbage,
		append(binMagic[:], lengthPrefixed(stateSync)...),
		append(binMagic[:], lengthPrefixed(rangeHandoff)...))
	// The retired one-message offer frame, well formed and sent after a
	// hello in JSON and in binary: a server that still applied it would put
	// its key into the sample checked below.
	garbage = append(garbage,
		[]byte(`{"type":"hello"}`+"\n"+`{"type":"offer","msg":{"Kind":1,"Key":"ghost-json","Hash":0.001}}`+"\n"),
		append(append(binMagic[:], lengthPrefixed([]byte{binHello, 0, 0})...), lengthPrefixed(retiredOffer("ghost-binary"))...))
	for i, raw := range garbage {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(raw); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		// The server must close the connection (possibly after an error
		// frame), within its preamble deadline for a peer that sends too few
		// bytes to make one, before the client's own read deadline.
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 256)
		for {
			if _, err = conn.Read(buf); err != nil {
				break
			}
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Errorf("case %d: the server kept the connection open: %v", i, err)
		}
		if len(raw) < len(binMagic) && err != io.EOF {
			t.Errorf("case %d: a short preamble ended in %v, want the server's close (EOF)", i, err)
		}
		conn.Close()
	}

	// The server is still healthy: a well-formed session works.
	hasher := hashing.NewMurmur2(5)
	client, err := DialSiteOptions(core.NewInfiniteSite(0, hasher), addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Observe("survivor", 0); err != nil {
		t.Fatal(err)
	}
	sample, err := QueryWith(addr, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != 1 || sample[0].Key != "survivor" {
		t.Fatalf("server state wrong after malformed traffic: %+v", sample)
	}
	if offers, _, _ := srv.Stats(); offers != 1 {
		t.Fatalf("offers = %d, want 1", offers)
	}
}

// TestMidStreamDisconnect kills site connections at awkward points (after
// hello, mid-frame) and checks the server keeps serving everyone else.
func TestMidStreamDisconnect(t *testing.T) {
	_, addr := startServer(t, core.NewInfiniteCoordinator(4))
	hasher := hashing.NewMurmur2(9)

	// A site that says hello and vanishes.
	c1, err := DialSiteOptions(core.NewInfiniteSite(1, hasher), addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = c1.Close()

	// A raw connection that dies halfway through a binary frame: magic, a
	// length prefix promising 100 bytes, but only 3 delivered.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	partial := append(binMagic[:], binary.LittleEndian.AppendUint32(nil, 100)...)
	partial = append(partial, 1, 2, 3)
	if _, err := raw.Write(partial); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	// A batched binary site that disconnects with offers still buffered
	// (never flushed): the server must simply never see them.
	c2, err := DialSiteOptions(core.NewInfiniteSite(2, hasher), addr, Options{Codec: CodecBinary, BatchSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Observe("buffered-key", 0); err != nil {
		t.Fatal(err)
	}
	// Close the raw socket underneath the client, then Close flushes into a
	// dead connection and must surface an error rather than hang.
	c2.conn.Close()
	if err := c2.Close(); err == nil {
		t.Fatal("expected flush-on-close over a dead connection to fail")
	}

	// A healthy site still works after all of the above.
	c3, err := DialSiteOptions(core.NewInfiniteSite(3, hasher), addr, Options{Codec: CodecBinary, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b", "c"} {
		if err := c3.Observe(key, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c3.Close(); err != nil {
		t.Fatal(err)
	}
	sample, err := QueryWith(addr, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != 3 {
		t.Fatalf("sample has %d entries, want the 3 offered by the healthy site: %+v", len(sample), sample)
	}
}

// TestConcurrentQueriesDuringIngest hammers the query path while sites are
// ingesting (run with -race): queries must always return a consistent
// snapshot and never an error.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	const (
		k       = 4
		s       = 8
		queries = 25
	)
	_, addr := startServer(t, core.NewInfiniteCoordinator(s))
	hasher := hashing.NewMurmur2(31)
	keys := make([]string, 3000)
	for i := range keys {
		keys[i] = "key-" + string(rune('a'+i%26)) + "-" + time.Duration(i).String()
	}

	var wg sync.WaitGroup
	errs := make(chan error, k+queries)
	for site := 0; site < k; site++ {
		opts := Options{}
		if site%2 == 0 {
			opts = Options{Codec: CodecBinary, BatchSize: 16}
		}
		client, err := DialSiteOptions(core.NewInfiniteSite(site, hasher), addr, opts)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(site int, client *SiteClient) {
			defer wg.Done()
			for i, key := range keys {
				if i%k != site {
					continue
				}
				if err := client.Observe(key, int64(i)); err != nil {
					errs <- err
					return
				}
			}
			errs <- client.Close()
		}(site, client)
	}
	for range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sample, err := QueryWith(addr, CodecBinary)
			if err != nil {
				errs <- err
				return
			}
			if len(sample) > s {
				errs <- errTooBig(len(sample))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// After ingest settles, the sample matches the oracle.
	oracle := core.NewReference(s, hasher)
	oracle.ObserveAll(keys)
	final, err := QueryWith(addr, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.SameSample(final) {
		t.Fatal("final sample diverged from oracle after concurrent queries")
	}
}

type errTooBig int

func (e errTooBig) Error() string { return "sample larger than s" }

// TestCoordErrorTypedByCode pins how a client types a refusal: by the error
// frame's code alone. A coded frame restores its own sentinel whatever its
// text says, and a generic frame stays untyped even when its text reads like
// a fence's NACK.
func TestCoordErrorTypedByCode(t *testing.T) {
	sentinels := []error{ErrStaleRoute, ErrLeaseLapsed, ErrNotSnapshottable}
	for _, tc := range []struct {
		code byte
		text string
		want error // nil: untyped
	}{
		{errStaleRoute, "x", ErrStaleRoute},
		{errLeaseLapsed, "x", ErrLeaseLapsed},
		{errNotSnapshottable, "x", ErrNotSnapshottable},
		{errGeneric, "stale route: this shard no longer owns the key's range", nil},
		{errGeneric, "primary lease lapsed: offers fenced pending renewal or promotion", nil},
		{errGeneric, "snapshot: coordinator node does not support state snapshots", nil},
		{0xff, "x", nil}, // a code this client does not know
	} {
		err := coordError(&Frame{Type: FrameError, Error: tc.text, errCode: tc.code})
		for _, sentinel := range sentinels {
			if got := errors.Is(err, sentinel); got != (sentinel == tc.want) {
				t.Errorf("code %d, text %q: errors.Is(err, %q) = %v", tc.code, tc.text, sentinel, got)
			}
		}
		if !strings.Contains(err.Error(), tc.text) {
			t.Errorf("code %d: error %q lost the frame's text %q", tc.code, err, tc.text)
		}
	}
}
