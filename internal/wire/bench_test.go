package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// floodSite is a stub site that offers every arrival unconditionally, so
// transport benchmarks measure offer throughput rather than the protocol's
// (intentionally tiny) offer rate.
type floodSite struct {
	id     int
	hasher hashing.UnitHasher
}

func (f *floodSite) ID() int { return f.id }
func (f *floodSite) OnArrival(key string, _ int64, out *netsim.Outbox) {
	out.ToCoordinator(netsim.Message{Kind: netsim.KindOffer, Key: key, Hash: f.hasher.Unit(key)})
}
func (f *floodSite) OnMessage(netsim.Message, int64, *netsim.Outbox) {}
func (f *floodSite) OnSlotEnd(int64, *netsim.Outbox)                 {}
func (f *floodSite) Memory() int                                     { return 0 }

// offerThroughput ships n offers through one site connection and returns
// offers per second.
func offerThroughput(tb testing.TB, n int, opts Options) float64 {
	tb.Helper()
	srv := NewCoordinatorServer(core.NewInfiniteCoordinator(16))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer srv.Close()
	client, err := DialSiteOptions(&floodSite{id: 0, hasher: hashing.NewMurmur2(1)}, addr, opts)
	if err != nil {
		tb.Fatal(err)
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("flood-key-%d", i)
	}
	start := time.Now()
	for i, key := range keys {
		if err := client.Observe(key, int64(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := client.Close(); err != nil { // flushes the final partial batch
		tb.Fatal(err)
	}
	elapsed := time.Since(start)
	if offers, _, _ := srv.Stats(); offers != n {
		tb.Fatalf("server saw %d offers, want %d", offers, n)
	}
	return float64(n) / elapsed.Seconds()
}

// TestBatchedBinaryAtLeast3xPerOffer is the transport acceptance check:
// batch frames of 64 offers must move offers at least 3x faster than one
// offer per frame, the request/response path, on localhost. (Measured ratios
// are typically far higher; 3x leaves headroom for loaded CI.)
func TestBatchedBinaryAtLeast3xPerOffer(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement skipped in -short mode")
	}
	const n = 4000
	perOfferOps := offerThroughput(t, n, Options{})
	batchedOps := offerThroughput(t, n, Options{BatchSize: 64})
	t.Logf("per-offer: %.0f offers/s; batch=64: %.0f offers/s (%.1fx)",
		perOfferOps, batchedOps, batchedOps/perOfferOps)
	if batchedOps < 3*perOfferOps {
		t.Fatalf("batched %.0f offers/s is less than 3x per-offer %.0f offers/s", batchedOps, perOfferOps)
	}
}

// benchBatchFrame builds a representative 64-offer batch frame.
func benchBatchFrame() *Frame {
	hasher := hashing.NewMurmur2(3)
	f := &Frame{Type: FrameBatch, Seq: 123}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("bench-key-%d", i)
		f.Batch = append(f.Batch, BatchEntry{
			Slot: int64(i / 8),
			Msg:  netsim.Message{Kind: netsim.KindOffer, Key: key, Hash: hasher.Unit(key)},
		})
	}
	return f
}

// BenchmarkEncodeFrame measures the binary encode hot path: one 64-offer
// batch frame per op into a discarded buffered writer. Run with -benchmem;
// steady state must be allocation-free (asserted by
// TestEncodeFrameAllocationFree).
func BenchmarkEncodeFrame(b *testing.B) {
	c := newBinConn(bufio.NewReader(bytes.NewReader(nil)), io.Discard)
	f := benchBatchFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteFrame(f); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "offers/s")
}

// TestEncodeFrameAllocationFree pins the zero-allocation property of the
// batched binary encode path: once the connection's write buffer is warm,
// encoding a batch frame must not allocate at all.
func TestEncodeFrameAllocationFree(t *testing.T) {
	c := newBinConn(bufio.NewReader(bytes.NewReader(nil)), io.Discard)
	f := benchBatchFrame()
	if err := c.WriteFrame(f); err != nil { // warm the scratch buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("batched binary encode allocates %.1f times per frame, want 0", allocs)
	}
}

// BenchmarkDecodeFrame measures the binary decode hot path: one 64-offer
// batch frame per op, reusing one Frame so slice capacity reaches steady
// state. Run with -benchmem; the only per-op allocations left are the key
// strings themselves (asserted by TestDecodeFrameAllocsBoundedByKeys).
func BenchmarkDecodeFrame(b *testing.B) {
	var buf bytes.Buffer
	enc := newBinConn(bufio.NewReader(bytes.NewReader(nil)), &buf)
	src := benchBatchFrame()
	if err := enc.WriteFrame(src); err != nil {
		b.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	r := bytes.NewReader(raw)
	br := bufio.NewReader(r)
	c := newBinConn(br, io.Discard)
	var f Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(raw)
		br.Reset(r)
		if err := c.ReadFrame(&f); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "offers/s")
}

// TestDecodeFrameAllocsBoundedByKeys pins decode-side allocation behavior:
// decoding a warm 64-offer batch frame may allocate the 64 key strings it
// returns, and nothing else.
func TestDecodeFrameAllocsBoundedByKeys(t *testing.T) {
	var buf bytes.Buffer
	enc := newBinConn(bufio.NewReader(bytes.NewReader(nil)), &buf)
	src := benchBatchFrame()
	if err := enc.WriteFrame(src); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	r := bytes.NewReader(raw)
	br := bufio.NewReader(r)
	c := newBinConn(br, io.Discard)
	var f Frame
	r.Reset(raw)
	br.Reset(r)
	if err := c.ReadFrame(&f); err != nil { // warm scratch and slices
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(raw)
		br.Reset(r)
		if err := c.ReadFrame(&f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(len(src.Batch)) {
		t.Fatalf("decode allocates %.1f times per 64-offer frame, want at most %d (one per key string)",
			allocs, len(src.Batch))
	}
}

// BenchmarkTransport compares batch sizes and credit windows on the raw offer
// path: one request/response per offer versus frames batching 16 or 64
// offers, with one frame or a deeper window of frames in flight. The trace
// cases repeat batch 64 at window 8 with 1% and 100% of batches traced, so
// the cost of each sample rate reads against the untraced
// binary-batch64-win8.
func BenchmarkTransport(b *testing.B) {
	cases := []struct {
		name  string
		opts  Options
		trace float64 // trace sample rate
	}{
		{"binary-per-offer", Options{Codec: CodecBinary}, 0},
		{"binary-batch16", Options{Codec: CodecBinary, BatchSize: 16}, 0},
		{"binary-batch64", Options{Codec: CodecBinary, BatchSize: 64}, 0},
		{"binary-batch64-win8", Options{Codec: CodecBinary, BatchSize: 64, Window: 8}, 0},
		{"binary-batch64-win8-trace1pct", Options{Codec: CodecBinary, BatchSize: 64, Window: 8}, 0.01},
		{"binary-batch64-win8-trace100pct", Options{Codec: CodecBinary, BatchSize: 64, Window: 8}, 1},
		{"binary-batch64-win32", Options{Codec: CodecBinary, BatchSize: 64, Window: 32}, 0},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			obs.SetTraceSampleRate(c.trace)
			defer obs.SetTraceSampleRate(0)
			srv := NewCoordinatorServer(core.NewInfiniteCoordinator(16))
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			client, err := DialSiteOptions(&floodSite{id: 0, hasher: hashing.NewMurmur2(1)}, addr, c.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := client.Observe(fmt.Sprintf("key-%d", i), int64(i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := client.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "offers/s")
		})
	}
}
