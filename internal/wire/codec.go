package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// Codec names the wire encoding of a connection. The length-prefixed binary
// encoding is the only one, so CodecBinary, the zero value, is the only
// value. The type stays only because the benchmark module (perfbench)
// names it and passes it on; it goes once that module stops.
type Codec int

// CodecBinary is the length-prefixed binary encoding: a connection opens
// with the 4-byte preamble binMagic, and every frame is a uint32
// little-endian payload length followed by a compact tag-based payload.
// Combined with batched frames it amortizes syscalls and encoding over many
// offers.
const CodecBinary Codec = 0

// String implements fmt.Stringer.
func (c Codec) String() string { return "binary" }

// binMagic is the connection preamble. The trailing digit versions the
// frame layout: "2" added the pipeline sequence number to batch and replies
// frames, "3" added the trailing trace triple (trace/span ID uvarints plus a
// flags byte) to the trace-carrying frames — batch, replies, state-frame,
// route-push, lease-renew — "4" put the code byte ahead of an error frame's
// text, and "5" added the site's sample size to the hello frame. A peer
// speaking an older layout is rejected at the preamble instead of misparsing
// frames mid-stream.
var binMagic = [4]byte{'D', 'D', 'S', '5'}

// maxFrameSize bounds a binary frame's payload, protecting the server from
// malformed or hostile length prefixes.
const maxFrameSize = 16 << 20

// Binary frame type codes (the binary counterpart of the Frame* strings).
// Codes from 0x09 on are the replication, resharding, and control-plane
// frames added after DDS2 shipped; adding codes is layout-compatible
// (existing frames encode unchanged, and a peer that predates a code rejects
// it cleanly as unknown), so the preamble digit only moves when an existing
// frame's layout changes. Code 0x02 carried the retired one-message offer
// frame, and codes 0x08 and 0x0c the retired flat-sample state-sync and
// range-handoff frames; they are never reused, so a stale peer still sending
// them is rejected as unknown rather than misparsed as a newer frame.
const (
	binHello       = 0x01
	binReplies     = 0x03
	binQuery       = 0x04
	binSample      = 0x05
	binError       = 0x06
	binBatch       = 0x07
	binStateAck    = 0x09
	binPromote     = 0x0a
	binRouteUpdate = 0x0b
	// State frames (the unified Snapshot/Restore API): the payload is an
	// encoded core.State — kind-tagged and version-fenced by core's own
	// encoding — so one frame layout carries every sampler kind's full state.
	binStateFrame   = 0x0d
	binStateHandoff = 0x0e
	binSnapshot     = 0x0f
	// Self-healing control-plane frames: server-initiated route pushes and
	// the lease renew/ack exchange of lease-based primary fencing. Like the
	// replication frames, they are new codes over the DDS2 layout.
	binRoutePush  = 0x10
	binLeaseRenew = 0x11
	binLeaseAck   = 0x12
)

var binToName = map[byte]string{
	binHello:        FrameHello,
	binReplies:      FrameReplies,
	binQuery:        FrameQuery,
	binSample:       FrameSample,
	binError:        FrameError,
	binBatch:        FrameBatch,
	binStateAck:     FrameStateAck,
	binPromote:      FramePromote,
	binRouteUpdate:  FrameRouteUpdate,
	binStateFrame:   FrameState,
	binStateHandoff: FrameStateHandoff,
	binSnapshot:     FrameSnapshot,
	binRoutePush:    FrameRoutePush,
	binLeaseRenew:   FrameLeaseRenew,
	binLeaseAck:     FrameLeaseAck,
}

// Minimum encoded sizes, used to reject implausible element counts before
// allocating: a message is kind (1) + key length uvarint (>=1) + hash and u
// (8 each) + three varints (>=1 each); a batch entry adds a slot varint; a
// sample entry is key length uvarint (>=1) + hash (8) + expiry varint (>=1).
const (
	minMessageBytes     = 1 + 1 + 8 + 8 + 1 + 1 + 1
	minBatchEntryBytes  = 1 + minMessageBytes
	minSampleEntryBytes = 1 + 8 + 1
)

var nameToBin = map[string]byte{
	FrameHello:        binHello,
	FrameReplies:      binReplies,
	FrameQuery:        binQuery,
	FrameSample:       binSample,
	FrameError:        binError,
	FrameBatch:        binBatch,
	FrameStateAck:     binStateAck,
	FramePromote:      binPromote,
	FrameRouteUpdate:  binRouteUpdate,
	FrameState:        binStateFrame,
	FrameStateHandoff: binStateHandoff,
	FrameSnapshot:     binSnapshot,
	FrameRoutePush:    binRoutePush,
	FrameLeaseRenew:   binLeaseRenew,
	FrameLeaseAck:     binLeaseAck,
}

// frameConn reads and writes protocol frames over one transport. A
// connection is used by at most one reading and one writing goroutine at a
// time (a site client reads replies from a dedicated goroutine while the
// caller writes, and a server's push writer takes the write side under a
// lock it shares with the serve loop); each side owns its own buffer.
//
// WriteFrame may buffer; Flush pushes everything buffered to the wire.
// Callers must Flush before blocking on a response. The site client's writer
// uses this to coalesce frames into one syscall: it flushes a batch frame at
// once only when no flushed frame awaits its ack, and otherwise holds it
// until that ack returns or until it must wait for credits. The server
// flushes its replies once no whole frame waits to be read (inputWaiting). A
// buffer that reaches connBufMax writes through without a Flush.
type frameConn interface {
	ReadFrame(f *Frame) error
	WriteFrame(f *Frame) error
	Flush() error
}

// FrameConn is the exported face of the transport seam: anything that reads
// and writes protocol frames. Middleware that wraps connections — the
// faultnet fault injector foremost — implements and consumes this interface;
// DialSyncWrap and NewMemSyncWrap thread a wrapper into real connections.
type FrameConn = frameConn

// inputWaiting reports whether a whole frame already waits to be read on fc,
// so that its next ReadFrame returns without waiting for the peer. binConn
// and MemConn can tell; any other frameConn, such as a middleware wrapper,
// answers no, and a server serving it flushes after every frame.
func inputWaiting(fc frameConn) bool {
	w, ok := fc.(interface{ inputWaiting() bool })
	return ok && w.inputWaiting()
}

// A connection's two buffers start at connBufInit, which holds a read
// dialogue's frames at small s (a 64-entry sample frame is about 2 KB), and
// grow with the traffic. connBufMax is as much as a whole pipeline window of
// typical batch frames, so a coalesced flush or a batched read costs one
// syscall: a write buffer that reaches it writes through, and a read buffer
// that a read fills doubles up to it.
const (
	connBufInit = 4 << 10
	connBufMax  = 64 << 10
)

// binConn is the length-prefixed binary transport over a stream connection.
// It owns one buffer per direction, each touched by one goroutine at a time:
// a site client reads from a dedicated goroutine while the writer keeps
// encoding, and neither side reallocates once warm.
//
// WriteFrame encodes each frame in place at the end of wbuf, the frames not
// yet flushed, and Flush sends them in one Write, so a run of batch frames
// costs one syscall. The first failed write is sticky, as in bufio.Writer:
// every later WriteFrame and Flush returns it and writes nothing.
//
// ReadFrame reads into rbuf and decodes the payload where it lies. Every
// decoded string and State is copied out, so nothing aliases the buffer.
// rbuf grows only as bytes arrive: it doubles, up to connBufMax, while a read
// fills it, and a larger frame whose bytes fill it grows it on to the frame's
// length (see fill). A stream that ends between frames reads io.EOF; one that
// ends inside a frame reads io.ErrUnexpectedEOF.
type binConn struct {
	r io.Reader
	w io.Writer

	rbuf       []byte // read buffer: rbuf[rpos:rend] is read and not yet decoded
	rpos, rend int

	wbuf []byte // encoded frames not yet flushed
	werr error  // the first write error
}

func newBinConn(r io.Reader, w io.Writer) *binConn {
	return &binConn{r: r, w: w, rbuf: make([]byte, connBufInit), wbuf: make([]byte, 0, connBufInit)}
}

// Flush sends the pending frames in one Write.
func (c *binConn) Flush() error {
	if c.werr != nil || len(c.wbuf) == 0 {
		return c.werr
	}
	n, err := c.w.Write(c.wbuf)
	if err == nil && n < len(c.wbuf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		c.werr = err
		return err
	}
	c.wbuf = c.wbuf[:0]
	return nil
}

// clientConn builds the client half of a fresh connection. The preamble
// waits in the write buffer and leaves with the first frame.
func clientConn(conn net.Conn) *binConn {
	c := newBinConn(conn, conn)
	c.wbuf = append(c.wbuf, binMagic[:]...)
	return c
}

func (c *binConn) WriteFrame(f *Frame) error {
	if c.werr != nil {
		return c.werr
	}
	code, ok := nameToBin[f.Type]
	if !ok {
		return fmt.Errorf("wire: cannot encode frame type %q", f.Type)
	}
	// The payload is encoded behind the pending frames, after a 4-byte
	// placeholder that becomes the length prefix, with no per-frame
	// allocation. An encode error leaves c.wbuf as it was.
	start := len(c.wbuf)
	buf := append(c.wbuf, 0, 0, 0, 0, code)
	switch code {
	case binHello:
		buf = binary.AppendUvarint(buf, uint64(f.Site))
		buf = binary.AppendUvarint(buf, uint64(f.SampleSize))
	case binReplies:
		buf = binary.AppendUvarint(buf, f.Seq)
		buf = binary.AppendUvarint(buf, uint64(len(f.Msgs)))
		for _, m := range f.Msgs {
			buf = appendMessage(buf, m)
		}
		buf = appendTrace(buf, f)
	case binQuery:
		// No payload.
	case binSample:
		buf = binary.AppendUvarint(buf, uint64(len(f.Entries)))
		for _, e := range f.Entries {
			buf = appendString(buf, e.Key)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Hash))
			buf = binary.AppendVarint(buf, e.Expiry)
		}
	case binError:
		buf = append(buf, f.errCode)
		buf = appendString(buf, f.Error)
	case binBatch:
		buf = binary.AppendUvarint(buf, f.Seq)
		buf = binary.AppendUvarint(buf, uint64(len(f.Batch)))
		for _, e := range f.Batch {
			buf = binary.AppendVarint(buf, e.Slot)
			buf = appendMessage(buf, e.Msg)
		}
		buf = appendTrace(buf, f)
	case binStateAck:
		buf = binary.AppendUvarint(buf, f.Epoch)
		buf = binary.AppendUvarint(buf, f.Seq)
	case binPromote:
		buf = binary.AppendUvarint(buf, f.Epoch)
	case binRouteUpdate:
		buf = binary.AppendUvarint(buf, f.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, f.Lo)
		buf = binary.LittleEndian.AppendUint64(buf, f.Hi)
	case binStateFrame:
		buf = binary.AppendUvarint(buf, f.Epoch)
		buf = binary.AppendUvarint(buf, f.Seq)
		buf = binary.AppendVarint(buf, f.Slot)
		buf = binary.AppendUvarint(buf, uint64(len(f.State)))
		buf = append(buf, f.State...)
		buf = appendTrace(buf, f)
	case binStateHandoff:
		buf = binary.AppendUvarint(buf, f.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, f.Lo)
		buf = binary.LittleEndian.AppendUint64(buf, f.Hi)
		buf = binary.AppendUvarint(buf, uint64(len(f.State)))
		buf = append(buf, f.State...)
	case binSnapshot:
		// No payload.
	case binRoutePush:
		if len(f.Bounds) != len(f.Slots) {
			return fmt.Errorf("wire: route-push with %d bounds but %d slots", len(f.Bounds), len(f.Slots))
		}
		buf = binary.AppendUvarint(buf, f.Seq)
		buf = binary.AppendUvarint(buf, uint64(len(f.Bounds)))
		for i := range f.Bounds {
			buf = binary.LittleEndian.AppendUint64(buf, f.Bounds[i])
			buf = binary.AppendVarint(buf, f.Slots[i])
		}
		buf = binary.AppendUvarint(buf, uint64(len(f.Groups)))
		for _, g := range f.Groups {
			buf = binary.AppendUvarint(buf, uint64(len(g)))
			for _, addr := range g {
				buf = appendString(buf, addr)
			}
		}
		buf = appendTrace(buf, f)
	case binLeaseRenew:
		buf = binary.AppendUvarint(buf, f.Epoch)
		buf = binary.AppendUvarint(buf, f.Seq)
		buf = appendTrace(buf, f)
	case binLeaseAck:
		buf = binary.AppendUvarint(buf, f.Epoch)
		buf = binary.AppendUvarint(buf, f.Seq)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	c.wbuf = buf
	if len(buf) >= connBufMax {
		if err := c.Flush(); err != nil {
			return err
		}
	}
	obsFramesEncoded[code].Inc()
	obsBytesOut.Add(uint64(len(buf) - start))
	return nil
}

// fill reads until rbuf holds at least need undecoded bytes. It first moves
// the undecoded bytes to the front of rbuf, doubled if the last read filled
// it, so each read takes as much as the buffer holds. A frame larger than
// rbuf grows it only once the bytes that arrived fill it: to connBufMax at
// once, and past that by doubling, up to the frame's length. So the buffer
// grows with what the peer has sent, never to what a length prefix
// announces.
func (c *binConn) fill(need int) error {
	if c.rend-c.rpos >= need {
		return nil
	}
	size := len(c.rbuf)
	if c.rend == size && size < connBufMax { // the last read filled rbuf
		size = min(2*size, connBufMax)
	}
	c.resize(size)
	for c.rend < need {
		if c.rend == len(c.rbuf) {
			c.resize(min(max(2*len(c.rbuf), connBufMax), need))
		}
		n, err := c.r.Read(c.rbuf[c.rend:])
		c.rend += n
		if err != nil && c.rend < need {
			if err == io.EOF && c.rend > 0 {
				err = io.ErrUnexpectedEOF // the stream ended inside a frame
			}
			return err
		}
	}
	return nil
}

// resize moves the undecoded bytes to the front of a read buffer of size
// bytes, a new one when size exceeds rbuf's.
func (c *binConn) resize(size int) {
	have := c.rend - c.rpos
	if size > len(c.rbuf) {
		buf := make([]byte, size)
		copy(buf, c.rbuf[c.rpos:c.rend])
		c.rbuf = buf
	} else if c.rpos > 0 {
		copy(c.rbuf, c.rbuf[c.rpos:c.rend])
	}
	c.rpos, c.rend = 0, have
}

// inputWaiting reports whether a whole frame waits in the read buffer, so
// that the next ReadFrame returns without reading the connection.
func (c *binConn) inputWaiting() bool {
	have := c.rend - c.rpos
	return have >= 4 && have >= 4+int(binary.LittleEndian.Uint32(c.rbuf[c.rpos:]))
}

func (c *binConn) ReadFrame(f *Frame) error {
	if err := c.fill(4); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(c.rbuf[c.rpos:])
	if n == 0 || n > maxFrameSize {
		return fmt.Errorf("wire: invalid frame length %d", n)
	}
	size := 4 + int(n)
	if err := c.fill(size); err != nil {
		return err
	}
	buf := c.rbuf[c.rpos+4 : c.rpos+size]
	c.rpos += size
	// Decode-window stamp (coord_decode span): only while tracing is
	// enabled, so the unsampled hot path pays one atomic load, no clock
	// reads. The window starts once the payload is in memory — network wait
	// must not masquerade as decode time.
	var decStart int64
	if obs.TracingEnabled() {
		decStart = nowNanos()
	}
	// Keep the capacity of the previous frame's slices: decoding repeatedly
	// into the same Frame then reaches steady state without reallocating.
	msgs, entries, batch, state := f.Msgs[:0], f.Entries[:0], f.Batch[:0], f.State[:0]
	*f = Frame{}
	d := byteDecoder{buf: buf}
	code := d.byte()
	name, ok := binToName[code]
	if !ok {
		return fmt.Errorf("wire: unknown binary frame code 0x%02x", code)
	}
	f.Type = name
	obsFramesDecoded[code].Inc()
	obsBytesIn.Add(uint64(n) + 4)
	switch code {
	case binHello:
		f.Site = int(d.uvarint())
		f.SampleSize = int(d.uvarint())
	case binReplies:
		f.Seq = d.uvarint()
		count := d.uvarint()
		if err := d.checkCount(count, minMessageBytes); err != nil {
			return err
		}
		if count > 0 {
			f.Msgs = msgs
		}
		for i := uint64(0); i < count && d.err == nil; i++ {
			f.Msgs = append(f.Msgs, d.message())
		}
		d.trace(f)
	case binQuery:
	case binSample:
		count := d.uvarint()
		if err := d.checkCount(count, minSampleEntryBytes); err != nil {
			return err
		}
		if count > 0 {
			// One slice of the bounded count, where appending to a fresh
			// frame's would reallocate about log2(count) times.
			if uint64(cap(entries)) < count {
				entries = make([]netsim.SampleEntry, 0, count)
			}
			f.Entries = entries
		}
		for i := uint64(0); i < count && d.err == nil; i++ {
			e := netsim.SampleEntry{Key: d.string(), Hash: d.float()}
			e.Expiry = d.varint()
			f.Entries = append(f.Entries, e)
		}
	case binError:
		f.errCode = d.byte()
		f.Error = d.string()
	case binBatch:
		f.Seq = d.uvarint()
		count := d.uvarint()
		if err := d.checkCount(count, minBatchEntryBytes); err != nil {
			return err
		}
		if count > 0 {
			f.Batch = batch
		}
		for i := uint64(0); i < count && d.err == nil; i++ {
			e := BatchEntry{Slot: d.varint()}
			e.Msg = d.message()
			f.Batch = append(f.Batch, e)
		}
		d.trace(f)
	case binStateAck:
		f.Epoch = d.uvarint()
		f.Seq = d.uvarint()
	case binPromote:
		f.Epoch = d.uvarint()
	case binRouteUpdate:
		f.Seq = d.uvarint()
		f.Lo = d.uint64()
		f.Hi = d.uint64()
	case binStateFrame:
		f.Epoch = d.uvarint()
		f.Seq = d.uvarint()
		f.Slot = d.varint()
		f.State = d.bytes(state)
		d.trace(f)
	case binStateHandoff:
		f.Seq = d.uvarint()
		f.Lo = d.uint64()
		f.Hi = d.uint64()
		f.State = d.bytes(state)
	case binSnapshot:
	case binRoutePush:
		f.Seq = d.uvarint()
		count := d.uvarint()
		// Each range costs at least 8 bytes of bound plus 1 of slot varint.
		if err := d.checkCount(count, 9); err != nil {
			return err
		}
		for i := uint64(0); i < count && d.err == nil; i++ {
			f.Bounds = append(f.Bounds, d.uint64())
			f.Slots = append(f.Slots, d.varint())
		}
		groups := d.uvarint()
		if err := d.checkCount(groups, 1); err != nil {
			return err
		}
		for i := uint64(0); i < groups && d.err == nil; i++ {
			members := d.uvarint()
			if err := d.checkCount(members, 1); err != nil {
				return err
			}
			var g []string
			for j := uint64(0); j < members && d.err == nil; j++ {
				g = append(g, d.string())
			}
			f.Groups = append(f.Groups, g)
		}
		d.trace(f)
	case binLeaseRenew:
		f.Epoch = d.uvarint()
		f.Seq = d.uvarint()
		d.trace(f)
	case binLeaseAck:
		f.Epoch = d.uvarint()
		f.Seq = d.uvarint()
	}
	if decStart != 0 {
		f.decodeStart, f.decodeEnd = decStart, nowNanos()
	}
	return d.err
}

// appendTrace appends the trailing trace triple of the trace-carrying frame
// kinds: trace and span IDs as uvarints plus one flags byte. Unsampled
// traffic appends three zero bytes — no branch, no allocation — keeping the
// traced layout uniform so the decoder never guesses.
func appendTrace(buf []byte, f *Frame) []byte {
	buf = binary.AppendUvarint(buf, f.TraceID)
	buf = binary.AppendUvarint(buf, f.SpanID)
	return append(buf, f.TraceFlags)
}

// trace decodes the trailing trace triple into the frame.
func (d *byteDecoder) trace(f *Frame) {
	f.TraceID = d.uvarint()
	f.SpanID = d.uvarint()
	f.TraceFlags = d.byte()
}

// appendString appends a uvarint length followed by the bytes.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendMessage appends one protocol message in the compact layout:
// kind (1 byte), key (length-prefixed), hash and u (8 bytes each, IEEE 754
// bits), expiry / copy / from (zigzag varints).
func appendMessage(buf []byte, m netsim.Message) []byte {
	buf = append(buf, byte(m.Kind))
	buf = appendString(buf, m.Key)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Hash))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.U))
	buf = binary.AppendVarint(buf, m.Expiry)
	buf = binary.AppendVarint(buf, int64(m.Copy))
	buf = binary.AppendVarint(buf, int64(m.From))
	return buf
}

// byteDecoder consumes the fields of a binary payload, remembering the first
// error so call sites can read a whole struct before checking.
type byteDecoder struct {
	buf []byte
	err error
}

func (d *byteDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated binary frame")
	}
}

func (d *byteDecoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *byteDecoder) uvarint() uint64 {
	// Fast path: single-byte values cover key lengths, counts, and most
	// protocol fields on the ingest hot path.
	if len(d.buf) > 0 && d.buf[0] < 0x80 {
		if d.err != nil {
			return 0
		}
		v := uint64(d.buf[0])
		d.buf = d.buf[1:]
		return v
	}
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *byteDecoder) varint() int64 {
	// Fast path: single-byte zigzag values (|v| <= 63) cover the slot,
	// expiry, copy, and sender fields of typical offers.
	if len(d.buf) > 0 && d.buf[0] < 0x80 {
		if d.err != nil {
			return 0
		}
		ux := uint64(d.buf[0])
		d.buf = d.buf[1:]
		x := int64(ux >> 1)
		if ux&1 != 0 {
			x = ^x
		}
		return x
	}
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// bytes reads a uvarint length followed by that many raw bytes, copied into
// scratch (reusing its capacity) so the result does not alias the
// connection's read buffer.
func (d *byteDecoder) bytes(scratch []byte) []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)) < n {
		d.fail()
		return nil
	}
	out := append(scratch[:0], d.buf[:n]...)
	d.buf = d.buf[n:]
	return out
}

func (d *byteDecoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.fail()
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *byteDecoder) uint64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *byteDecoder) float() float64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

func (d *byteDecoder) message() netsim.Message {
	m := netsim.Message{Kind: netsim.Kind(d.byte())}
	m.Key = d.string()
	m.Hash = d.float()
	m.U = d.float()
	m.Expiry = d.varint()
	m.Copy = int(d.varint())
	m.From = int(d.varint())
	return m
}

// checkCount rejects element counts that could not possibly fit in the
// remaining payload (each element costs at least minBytes), so a corrupt
// count cannot trigger a huge allocation.
func (d *byteDecoder) checkCount(count uint64, minBytes int) error {
	if d.err != nil {
		return d.err
	}
	if count > uint64(len(d.buf)/minBytes)+1 {
		d.err = fmt.Errorf("wire: implausible element count %d in binary frame", count)
	}
	return d.err
}

// serverConn reads the preamble of an accepted connection and returns the
// server half of it. Anything but binMagic — an older layout's preamble
// included — is rejected, and so is a peer that sends no preamble within the
// sync dial bound: it holds no goroutine or read buffer past that. The
// buffers are allocated only once the preamble is good.
func serverConn(conn net.Conn) (*binConn, error) {
	var magic [4]byte
	if err := conn.SetReadDeadline(time.Now().Add(syncDialTimeout)); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		return nil, err
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return nil, err
	}
	if magic != binMagic {
		return nil, fmt.Errorf("wire: bad connection preamble % x", magic)
	}
	return newBinConn(conn, conn), nil
}
