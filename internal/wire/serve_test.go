package wire

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
)

// TestServeOneWritePerBurst checks the serve loop's flush rule: replies leave
// once the buffered input is drained. A hello and k batch frames that arrive
// in one read each draw a threshold reply, and all k replies frames must
// leave, in order, in one Write.
func TestServeOneWritePerBurst(t *testing.T) {
	const k = 6
	frames := []Frame{{Type: FrameHello, Site: 0}}
	for i := 0; i < k; i++ {
		frames = append(frames, Frame{Type: FrameBatch, Seq: uint64(i), Batch: []BatchEntry{{
			Msg: netsim.Message{Kind: netsim.KindOffer, Key: fmt.Sprintf("burst-%d", i), Hash: 1 / float64(i+2)},
		}}})
	}
	stream := encodeFrames(t, frames...)
	if len(stream) > connBufInit {
		t.Fatalf("the burst is %d B; want it within one %d B read", len(stream), connBufInit)
	}
	out := &writeRecorder{accept: -1}
	srv := NewCoordinatorServer(core.NewInfiniteCoordinator(4))
	srv.serve(newBinConn(bytes.NewReader(stream), out), io.NopCloser(nil))
	if out.calls != 1 {
		t.Fatalf("%d batch frames read at once were answered in %d writes, want 1", k, out.calls)
	}
	got, err := decodeAll(newBinConn(&out.got, io.Discard))
	if err != io.EOF {
		t.Fatalf("the replies ended in %v, want io.EOF", err)
	}
	if len(got) != k {
		t.Fatalf("%d frames written, want %d replies frames", len(got), k)
	}
	for i, f := range got {
		if f.Type != FrameReplies || f.Seq != uint64(i) || len(f.Msgs) != 1 || f.Msgs[0].Kind != netsim.KindThreshold {
			t.Fatalf("frame %d is %+v; want the replies frame of batch %d with one threshold", i, f, i)
		}
	}
}

// routePush returns a route-push frame whose shape varies with seq, so that
// a push cut or interleaved with another frame cannot decode as whole.
func routePush(seq uint64) *Frame {
	f := &Frame{Type: FrameRoutePush, Seq: seq}
	for i := uint64(0); i <= seq%5; i++ {
		f.Bounds = append(f.Bounds, i<<60)
		f.Slots = append(f.Slots, int64(i))
		f.Groups = append(f.Groups, []string{fmt.Sprintf("10.0.%d.%d:7470", seq%256, i)})
	}
	return f
}

// TestPushRouteNeverBlocks checks that PushRoute never waits on a site. While
// the site reads nothing, a thousand pushes return, and they are accepted
// only as far as the mailbox, the pipe and the one frame a stuck push writer
// holds make room. Once the site reads, every accepted push arrives, whole
// and in order, and no other; and Close returns while the push writer is
// stuck in a write.
func TestPushRouteNeverBlocks(t *testing.T) {
	srv := NewCoordinatorServer(core.NewInfiniteCoordinator(4))
	client := srv.ServeMem()
	// A query behind the hello: its answer shows the hello, and with it the
	// connection's mailbox, registered.
	if err := client.WriteFrame(&Frame{Type: FrameHello, Site: 1}); err != nil {
		t.Fatal(err)
	}
	if err := client.WriteFrame(&Frame{Type: FrameQuery}); err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := client.ReadFrame(&f); err != nil || f.Type != FrameSample {
		t.Fatalf("query after hello: %+v, %v", f, err)
	}

	const pushes = 1000
	pushAll := func(from uint64) []uint64 {
		t.Helper()
		done := make(chan []uint64, 1)
		go func() {
			var seqs []uint64
			for seq := from; seq < from+pushes; seq++ {
				if srv.PushRoute(routePush(seq)) == 1 {
					seqs = append(seqs, seq)
				}
			}
			done <- seqs
		}()
		select {
		case seqs := <-done:
			return seqs
		case <-time.After(10 * time.Second):
			t.Fatal("PushRoute blocked on a site that reads nothing")
			return nil
		}
	}
	seqs := pushAll(1)
	if most := pushMailbox + memPipeDepth + 1; len(seqs) < pushMailbox || len(seqs) > most {
		t.Fatalf("%d of %d pushes accepted by a site that reads nothing; want %d to %d",
			len(seqs), pushes, pushMailbox, most)
	}
	for _, seq := range seqs {
		var push Frame
		if err := client.ReadFrame(&push); err != nil {
			t.Fatalf("reading push %d: %v", seq, err)
		}
		if want := routePush(seq); !reflect.DeepEqual(&push, want) {
			t.Fatalf("got %+v, want push %+v", push, *want)
		}
	}
	if err := client.WriteFrame(&Frame{Type: FrameQuery}); err != nil {
		t.Fatal(err)
	}
	if err := client.ReadFrame(&f); err != nil || f.Type != FrameSample {
		t.Fatalf("after the %d accepted pushes: %+v, %v; want the query's sample and no other push", len(seqs), f, err)
	}

	pushAll(1 + pushes) // leaves the push writer stuck on the full pipe
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return while a push writer was stuck in a write")
	}
}

// TestPushesBesideIngest streams a pipelined site's batch frames on one TCP
// connection while route pushes arrive on it, so the push writer and the
// serve loop take turns on the connection's write side. Every replies frame
// must arrive in sequence (the site's reader fails the pipeline on any
// other), and every accepted push must arrive whole and in order.
func TestPushesBesideIngest(t *testing.T) {
	const (
		n     = 8000
		every = 40 // arrivals per push
	)
	srv, addr := startServer(t, core.NewInfiniteCoordinator(16))
	got := make(chan *Frame, n/every)
	client, err := DialSiteOptions(&floodSite{id: 0, hasher: hashing.NewMurmur2(1)}, addr,
		Options{BatchSize: 16, Window: 8, OnRoutePush: func(f *Frame) { got <- f }})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for i := 0; i < n; i++ {
		if err := client.Observe(fmt.Sprintf("beside-%d", i), int64(i)); err != nil {
			t.Fatalf("arrival %d: %v", i, err)
		}
		if i%every == 0 {
			if seq := uint64(i/every + 1); srv.PushRoute(routePush(seq)) == 1 {
				seqs = append(seqs, seq)
			}
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if offers, _, _ := srv.Stats(); offers != n {
		t.Fatalf("server saw %d offers, want %d", offers, n)
	}
	if len(seqs) == 0 {
		t.Fatal("no push was accepted during ingest")
	}
	for _, seq := range seqs {
		select {
		case f := <-got:
			if want := routePush(seq); !reflect.DeepEqual(f, want) {
				t.Fatalf("got %+v, want push %+v", *f, *want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("push %d never arrived", seq)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d pushes accepted beside %d arrivals", len(seqs), n/every, n)
}
