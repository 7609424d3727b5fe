package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/netsim"
)

// encodeFrames renders a sequence of frames in the binary codec (without the
// connection preamble — the fuzz target exercises the frame layer, which is
// what an attacker controls after the magic is accepted).
func encodeFrames(t testing.TB, frames ...Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := newBinConn(bufio.NewReader(bytes.NewReader(nil)), &buf)
	for i := range frames {
		if err := c.WriteFrame(&frames[i]); err != nil {
			t.Fatalf("encode %s: %v", frames[i].Type, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corpusFrames returns one representative frame of every kind the binary
// codec knows, including the resharding and control-plane frames
// (route-push, lease-renew, lease-ack), so the fuzzer starts from every
// branch of the decoder.
func corpusFrames() []Frame {
	msg := netsim.Message{Kind: netsim.KindOffer, Key: "corpus-key", Hash: 0.125, U: 0.5, Expiry: 7, Copy: 2, From: 3}
	entries := []netsim.SampleEntry{
		{Key: "entry-a", Hash: 0.001, Expiry: 9},
		{Key: "entry-b", Hash: 0.002},
	}
	return []Frame{
		{Type: FrameHello, Site: 4},
		{Type: FrameHello, Site: 5, SampleSize: 4096},
		{Type: FrameBatch, Seq: 11, Batch: []BatchEntry{{Slot: -11, Msg: msg}}},
		{Type: FrameReplies, Seq: 3, Msgs: []netsim.Message{msg, {Kind: netsim.KindThreshold, U: 0.25}}},
		{Type: FrameQuery},
		{Type: FrameSample, Entries: entries},
		{Type: FrameError, Error: "corpus error", errCode: errStaleRoute},
		{Type: FrameBatch, Seq: 9, Batch: []BatchEntry{{Slot: 1, Msg: msg}, {Slot: 2, Msg: msg}}},
		{Type: FrameStateAck, Epoch: 2, Seq: 5},
		{Type: FramePromote, Epoch: 6},
		{Type: FrameRouteUpdate, Seq: 4, Lo: 1 << 62, Hi: 3 << 62},
		{Type: FrameState, Epoch: 3, Seq: 7, Slot: 21, State: corpusState()},
		{Type: FrameStateHandoff, Seq: 5, Lo: 1 << 61, Hi: 1 << 63, State: corpusState()},
		{Type: FrameSnapshot},
		{Type: FrameRoutePush, Seq: 8,
			Bounds: []uint64{0, 1 << 62, 3 << 62},
			Slots:  []int64{0, 2, 1},
			Groups: [][]string{{"127.0.0.1:9001", "127.0.0.1:9002"}, {"127.0.0.1:9003"}, nil}},
		{Type: FrameLeaseRenew, Epoch: 4, Seq: 150_000_000},
		{Type: FrameLeaseAck, Epoch: 4, Seq: 150_000_000},
		// Trace-carrying variants of every frame kind that encodes the
		// trailing trace triple, so the fuzzer reaches the traced layout too.
		{Type: FrameBatch, Seq: 10, Batch: []BatchEntry{{Slot: 1, Msg: msg}},
			TraceID: 0xdeadbeefcafe, SpanID: 0x1234, TraceFlags: 1},
		{Type: FrameReplies, Seq: 10, Msgs: []netsim.Message{msg},
			TraceID: 0xdeadbeefcafe, SpanID: 0x5678, TraceFlags: 1},
		{Type: FrameState, Epoch: 3, Seq: 8, Slot: 22, State: corpusState(),
			TraceID: 1, SpanID: 1 << 63, TraceFlags: 1},
		{Type: FrameRoutePush, Seq: 9, Bounds: []uint64{0}, Slots: []int64{0},
			Groups: [][]string{{"127.0.0.1:9001"}}, TraceID: 42, SpanID: 43, TraceFlags: 1},
		{Type: FrameLeaseRenew, Epoch: 4, Seq: 150_000_000,
			TraceID: ^uint64(0), SpanID: ^uint64(0), TraceFlags: 0xff},
	}
}

// corpusState is a well-formed encoded core.State (sliding kind, candidate +
// store tuples + slot clock), so the fuzzer starts from the accept path of
// the generic state frames' payload too, not just their envelope.
func corpusState() []byte {
	cand := netsim.SampleEntry{Key: "state-cand", Hash: 0.01, Expiry: 30}
	return core.EncodeState(core.State{
		Version:    core.StateVersion,
		Kind:       core.StateSliding,
		SampleSize: 1,
		Slot:       17,
		Sections: []core.SectionState{{
			Candidate: &cand,
			Entries: []netsim.SampleEntry{
				{Key: "state-cand", Hash: 0.01, Expiry: 30},
				{Key: "state-b", Hash: 0.2, Expiry: 44},
			},
		}},
	})
}

// FuzzBinaryFrameDecode feeds arbitrary bytes to the binary frame decoder.
// The decoder must never panic or over-allocate, and any frame it does
// accept must round-trip: re-encoding and re-decoding yields the same frame
// again (the property the wire protocol's interoperability rests on). Each
// input is decoded a second time one byte per read, which must yield the
// same frames and end in the same error: how a stream is cut into reads
// never changes what it decodes to.
func FuzzBinaryFrameDecode(f *testing.F) {
	for _, fr := range corpusFrames() {
		f.Add(encodeFrames(f, fr))
	}
	// A multi-frame stream and some corrupt shapes.
	all := corpusFrames()
	f.Add(encodeFrames(f, all...))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{4, 0, 0, 0, 0x07, 0xff, 0xff})             // batch with an implausible count
	f.Add([]byte{1, 0, 0, 0, 0x42})                         // unknown frame code
	f.Add(append([]byte{200, 0, 0, 0}, make([]byte, 8)...)) // length prefix past the payload
	// The retired codes 0x08 and 0x0c with their old payloads, which the
	// decoder must keep rejecting as unknown.
	stateSync, rangeHandoff := legacyFrames()
	f.Add(lengthPrefixed(stateSync))
	f.Add(lengthPrefixed(rangeHandoff))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := newBinConn(bufio.NewReaderSize(bytes.NewReader(data), 64), io.Discard)
		oc := newBinConn(iotest.OneByteReader(bytes.NewReader(data)), io.Discard)
		var fr, ofr Frame
		for {
			err, oerr := c.ReadFrame(&fr), oc.ReadFrame(&ofr)
			if fmt.Sprint(err) != fmt.Sprint(oerr) {
				t.Fatalf("whole reads ended in %v, one-byte reads in %v", err, oerr)
			}
			if err != nil {
				return // any error is fine; panics and hangs are not
			}
			if !framesEquivalent(&fr, &ofr) {
				t.Fatalf("one-byte reads decoded another frame:\n whole: %+v\none-byte: %+v", fr, ofr)
			}
			// Round-trip what was accepted.
			reencoded := encodeFrames(t, fr)
			rc := newBinConn(bufio.NewReaderSize(bytes.NewReader(reencoded), 64), io.Discard)
			var fr2 Frame
			if err := rc.ReadFrame(&fr2); err != nil {
				t.Fatalf("re-decoding a re-encoded accepted frame failed: %v (frame %+v)", err, fr)
			}
			if !framesEquivalent(&fr, &fr2) {
				t.Fatalf("frame did not round-trip:\n first: %+v\nsecond: %+v", fr, fr2)
			}
		}
	})
}

// framesEquivalent compares two frames field by field, treating nil and
// empty slices as equal (decode reuses capacity, so emptiness is the
// invariant, not nilness).
func framesEquivalent(a, b *Frame) bool {
	if a.Type != b.Type || a.Site != b.Site || a.Slot != b.Slot || a.Seq != b.Seq ||
		a.Epoch != b.Epoch || a.Lo != b.Lo || a.Hi != b.Hi || a.Error != b.Error || a.errCode != b.errCode ||
		a.TraceID != b.TraceID || a.SpanID != b.SpanID || a.TraceFlags != b.TraceFlags ||
		!bytes.Equal(a.State, b.State) {
		return false
	}
	if len(a.Msgs) != len(b.Msgs) || len(a.Batch) != len(b.Batch) || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Msgs {
		if !messagesEquivalent(a.Msgs[i], b.Msgs[i]) {
			return false
		}
	}
	for i := range a.Batch {
		if a.Batch[i].Slot != b.Batch[i].Slot || !messagesEquivalent(a.Batch[i].Msg, b.Batch[i].Msg) {
			return false
		}
	}
	for i := range a.Entries {
		ea, eb := a.Entries[i], b.Entries[i]
		if ea.Key != eb.Key || ea.Expiry != eb.Expiry || !floatBitsEqual(ea.Hash, eb.Hash) {
			return false
		}
	}
	// Route-push payload: the table and the groups.
	if len(a.Bounds) != len(b.Bounds) || len(a.Slots) != len(b.Slots) || len(a.Groups) != len(b.Groups) {
		return false
	}
	for i := range a.Bounds {
		if a.Bounds[i] != b.Bounds[i] {
			return false
		}
	}
	for i := range a.Slots {
		if a.Slots[i] != b.Slots[i] {
			return false
		}
	}
	for i := range a.Groups {
		if len(a.Groups[i]) != len(b.Groups[i]) {
			return false
		}
		for j := range a.Groups[i] {
			if a.Groups[i][j] != b.Groups[i][j] {
				return false
			}
		}
	}
	return true
}

func messagesEquivalent(a, b netsim.Message) bool {
	return a.Kind == b.Kind && a.Key == b.Key && floatBitsEqual(a.Hash, b.Hash) &&
		floatBitsEqual(a.U, b.U) && a.Expiry == b.Expiry && a.Copy == b.Copy && a.From == b.From
}

func floatBitsEqual(a, b float64) bool {
	return a == b || (a != a && b != b) // equal, or both NaN
}

// TestCorpusFramesRoundTrip pins the corpus itself: every seeded frame must
// decode back equivalent, so the fuzz corpus is known-good input (a corpus
// of invalid frames would teach the fuzzer nothing about the accept paths).
func TestCorpusFramesRoundTrip(t *testing.T) {
	for _, fr := range corpusFrames() {
		data := encodeFrames(t, fr)
		c := newBinConn(bufio.NewReaderSize(bytes.NewReader(data), 64), io.Discard)
		var got Frame
		if err := c.ReadFrame(&got); err != nil {
			t.Fatalf("%s: decode: %v", fr.Type, err)
		}
		if !framesEquivalent(&fr, &got) {
			t.Fatalf("%s did not round-trip:\nsent: %+v\n got: %+v", fr.Type, fr, got)
		}
	}
}
