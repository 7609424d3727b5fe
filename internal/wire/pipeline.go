package wire

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// pipeline is the state of a site connection's credit window of Window (at
// least 1) batch frames. One frame in flight is Algorithms 1-2's
// request/response dialogue; deeper windows stream.
//
// The caller's goroutine is the writer, and the only goroutine that touches
// the site node, the scratch outbox and SiteClient.pending: Observe/EndSlot
// run the node, buffer its offers into pending, and ship() encodes them as
// sequence-numbered batch frames, at most Window in flight at once. A
// dedicated reader goroutine receives the coordinator's replies frames,
// matches them to batches by sequence number (the server echoes each batch's
// Seq and TCP preserves order, so replies must arrive in send order), queues
// the replies for the writer, and returns the batch's credit. It also hands
// route-push frames to Options.OnRoutePush as they arrive. The writer
// applies the queue to the site node at its next call (applyReplies), so a
// dropped arrival — the common case — costs one atomic load of ready and no
// lock.
//
// The credit window is the backpressure and memory bound: when the
// coordinator falls behind, the writer blocks in ship() after Window
// unacknowledged batches instead of buffering without limit. It also bounds
// the reply queue: at most Window replies frames arrive between two writer
// calls.
//
// Batch frames leave by Nagle's rule (RFC 896): a frame that ships while no
// flushed frame waits for its ack is flushed at once, so the site hears the
// coordinator's threshold one round trip later rather than one window later;
// a frame that ships behind frames in flight is held in the codec's write
// buffer, and every frame held by the time their ack returns leaves in one
// flush at the writer's next call. A one-frame window ships every frame into
// an empty wire.
//
// SiteClient.mu guards only what the reader shares with the writer: the
// fields below except ready, and the client's message counters. The reader
// reads the writer's sendSeq and flushedSeq under it, and the writer moves
// both under it. The actual WriteFrame, Flush and ReadFrame calls run
// unlocked so that a blocked TCP write can never prevent the reader from
// draining replies (the classic pipelined deadlock), and only the writer
// writes or flushes the connection. The codec keeps separate read and write
// scratch buffers for the same reason.
type pipeline struct {
	cond    *sync.Cond // signals credit returns and failures; cond.L == &SiteClient.mu
	sendSeq uint64     // sequence number of the next batch to ship
	ackSeq  uint64     // sequence number the next replies frame must carry
	slots   []int64    // slot context of each in-flight batch, FIFO
	err     error      // sticky failure; set once, ends the pipeline
	done    chan struct{}

	// unacked retains a copy of every shipped-but-unacknowledged batch,
	// FIFO and parallel to slots. On a cumulative ack the acked prefix is
	// recycled through free (so the steady-state hot path still allocates
	// nothing once warm — at most Window buffers circulate); on a connection
	// failure the retained batches are exactly the offers whose application
	// the client cannot prove, and SiteClient.Unacked hands them to the
	// failover path for replay against a promoted replica.
	unacked [][]BatchEntry
	free    [][]BatchEntry

	// sendTimes records each in-flight batch's ship time (UnixNano), FIFO
	// and parallel to slots, feeding the ack-latency histogram when the
	// cumulative ack arrives.
	sendTimes []int64

	// traces records each in-flight batch's trace context, FIFO and parallel
	// to sendTimes: the reader closes a sampled batch's site_ack span when
	// its cumulative ack arrives. Almost always the zero context — the trace
	// decision happens at ship time and unsampled batches stay zero — and
	// the slice reaches steady-state capacity with sendTimes, so tracing
	// costs the unsampled pipeline no allocations.
	traces []obs.TraceContext

	// replies queues the coordinator's replies, each with the slot of the
	// batch it answers, from the reader to the writer. ready is raised with
	// the first queued reply and by a failure, and lowered by the writer when
	// it takes a queue from a healthy pipeline, so the writer finds both
	// without taking mu. spare holds the storage of the queue the writer took
	// last, swapped back in at its next take, so the two slices circulate
	// without allocating.
	replies []queuedReply
	spare   []queuedReply
	ready   atomic.Bool

	// flushedSeq is sendSeq as of the writer's last flush. Frames
	// [ackSeq, flushedSeq) are on the wire, and frames [flushedSeq, sendSeq)
	// are held in the write buffer. The wire is empty once ackSeq reaches
	// flushedSeq (or passes it: a write buffer that fills writes through).
	// The writer MUST flush held frames before blocking on credits or
	// draining, or the coordinator never sees the batches it is expected to
	// ack.
	flushedSeq uint64
}

// queuedReply is one coordinator reply awaiting the writer, with the slot of
// the batch it answers.
type queuedReply struct {
	msg  netsim.Message
	slot int64
}

// inflight returns the number of unacknowledged batches. Callers hold mu.
func (p *pipeline) inflight() int { return int(p.sendSeq - p.ackSeq) }

// wireEmpty reports whether no flushed frame waits for its ack. Callers hold
// mu.
func (p *pipeline) wireEmpty() bool { return p.ackSeq >= p.flushedSeq }

// held reports whether batch frames wait unflushed in the write buffer.
// Callers hold mu.
func (p *pipeline) held() bool { return p.sendSeq > p.flushedSeq }

// release moves the watermark past every held frame and reports whether
// there were any; the caller flushes them once it has dropped mu. Callers
// hold mu.
func (p *pipeline) release() bool {
	if !p.held() {
		return false
	}
	p.flushedSeq = p.sendSeq
	return true
}

// failPipe records the pipeline's first error, raises ready so the writer's
// next call finds it, and wakes every waiter. Callers must hold mu.
func (c *SiteClient) failPipe(err error) {
	if c.pipe.err == nil {
		c.pipe.err = err
	}
	c.pipe.ready.Store(true)
	c.pipe.cond.Broadcast()
}

// fail is failPipe for a caller that does not hold mu; it returns err.
func (c *SiteClient) fail(err error) error {
	c.mu.Lock()
	c.failPipe(err)
	c.mu.Unlock()
	return err
}

// applyReplies takes the reply queue and feeds it into the site node on the
// writer's goroutine, buffering any offers the node emits in response, and
// then returns the pipeline's sticky error, if any: replies that arrived
// before a failure still reach the node. On a healthy pipeline whose wire
// has emptied it first flushes the frames held behind the ack; a failed
// pipeline never flushes.
func (c *SiteClient) applyReplies() error {
	p := &c.pipe
	c.mu.Lock()
	queue := p.replies
	p.replies, p.spare = p.spare[:0], queue[:0]
	err := p.err
	release := false
	if err == nil {
		p.ready.Store(false)
		release = p.wireEmpty() && p.release()
	}
	c.mu.Unlock()
	if release {
		err = c.flushBatches()
	}
	for _, r := range queue {
		c.scratch.Reset()
		c.node.OnMessage(r.msg, r.slot, &c.scratch)
		if berr := c.buffer(r.slot); berr != nil {
			return c.fail(berr)
		}
	}
	return err
}

// flushBatches pushes the batch frames in the codec's write buffer to the
// socket. Only the writer calls it.
func (c *SiteClient) flushBatches() error {
	if err := c.fc.Flush(); err != nil {
		return c.fail(fmt.Errorf("wire: flush batches: %w", err))
	}
	return nil
}

// buffer appends the scratch outbox's messages to the pending buffer and
// resets the outbox. It runs on the caller's goroutine, which owns both.
func (c *SiteClient) buffer(slot int64) error {
	for _, env := range c.scratch.Envelopes() {
		if env.Broadcast || env.To != netsim.CoordinatorID {
			return errors.New("wire: site nodes may only message the coordinator")
		}
		c.noteBatchStart()
		c.pending = append(c.pending, BatchEntry{Slot: slot, Msg: env.Msg})
	}
	c.scratch.Reset()
	return nil
}

// ship moves pending offers onto the wire as sequence-numbered batch frames.
// It sends only full batches unless all is set, waits for a credit when the
// window is full (backpressure), and never holds mu across a write.
//
// Writes are buffered by the codec. A frame that ships into an empty wire is
// flushed at once, together with any frames still held; one that ships
// behind frames in flight stays buffered until their ack empties the wire
// (applyReplies flushes it then). ship also flushes every held frame before
// it blocks on a full window and when it drains (all), so the coordinator
// always sees every shipped frame before the writer goes to sleep (no flush,
// no progress, deadlock).
func (c *SiteClient) ship(all bool) error {
	batchSize := c.opts.BatchSize
	for {
		c.mu.Lock()
		stalledAt, stallEnd := int64(0), int64(0)
		for c.pipe.inflight() >= c.opts.Window && c.pipe.err == nil {
			if c.pipe.release() {
				c.mu.Unlock()
				if err := c.flushBatches(); err != nil {
					return err
				}
				c.mu.Lock()
				continue
			}
			// Out of credits with nothing left to flush: the writer sleeps
			// until the reader returns credit. This is the backpressure the
			// stall counters expose.
			if stalledAt == 0 {
				stalledAt = nowNanos()
				obsCreditStalls.Inc()
			}
			c.pipe.cond.Wait()
		}
		if stalledAt != 0 {
			stallEnd = nowNanos()
			obsCreditStallNs.Observe(stallEnd - stalledAt)
		}
		if err := c.pipe.err; err != nil {
			c.mu.Unlock()
			return err
		}
		n := len(c.pending)
		if n == 0 || (!all && n < batchSize) {
			// Held frames wait for the ack that empties the wire; only a
			// drain (all) forces them out now.
			release := all && c.pipe.release()
			c.mu.Unlock()
			if release {
				return c.flushBatches()
			}
			return nil
		}
		if n > batchSize {
			n = batchSize
		}
		// Copy the chunk out (into a recycled buffer when one is free) and
		// compact pending, so its storage is reused by the next fill. The
		// copy is retained in unacked until its ack arrives — it is both the
		// frame's payload and the failover replay record.
		var buf []BatchEntry
		if k := len(c.pipe.free); k > 0 {
			buf = c.pipe.free[k-1]
			c.pipe.free = c.pipe.free[:k-1]
		}
		batch := append(buf[:0], c.pending[:n]...)
		rest := copy(c.pending, c.pending[n:])
		c.pending = c.pending[:rest]
		seq := c.pipe.sendSeq
		c.pipe.sendSeq++
		// Nagle's rule: into an empty wire the frame leaves at once, with
		// any frames held before it; behind frames in flight it is held.
		flushNow := c.pipe.wireEmpty() && c.pipe.release()
		// Trace decision at ship time: a sampled batch's context rides the
		// frame, joins the traces FIFO for the reader's site_ack span, and
		// closes the assembly (site_batch) and credit-wait spans here.
		// Unsampled: one atomic load in StartTrace, zero-value bookkeeping.
		tc := obs.StartTrace()
		batchStart := c.batchStartNs
		c.batchStartNs = 0
		c.pipe.slots = append(c.pipe.slots, batch[len(batch)-1].Slot)
		c.pipe.sendTimes = append(c.pipe.sendTimes, nowNanos())
		c.pipe.traces = append(c.pipe.traces, tc)
		c.pipe.unacked = append(c.pipe.unacked, batch)
		c.sent += len(batch)
		obsBatchSize.Observe(int64(len(batch)))
		c.mu.Unlock()

		var writeStart int64
		if tc.Sampled() {
			now := nowNanos()
			if batchStart != 0 {
				obs.StageSpan(tc, obs.StageSiteBatch, batchStart, now)
			}
			if stalledAt != 0 {
				obs.StageSpan(tc, obs.StageCreditWait, stalledAt, stallEnd)
			}
			writeStart = now
		}
		c.wframe = Frame{Type: FrameBatch, Seq: seq, Batch: batch}
		c.wframe.SetTrace(tc)
		if err := c.fc.WriteFrame(&c.wframe); err != nil {
			return c.fail(fmt.Errorf("wire: send batch: %w", err))
		}
		if tc.Sampled() {
			obs.StageSpan(tc, obs.StageSiteWrite, writeStart, nowNanos())
		}
		if flushNow {
			if err := c.flushBatches(); err != nil {
				return err
			}
		}
	}
}

// readLoop is the dedicated reply reader of a site connection. It verifies
// reply sequencing, queues replies for the writer (it never calls the site
// node), returns credits, and hands route pushes to the callback. When an
// ack empties the wire while frames are held, it raises ready so that the
// writer flushes them at its next call; the reader itself never writes or
// flushes the connection. It exits on the first error or when the connection
// closes.
func (c *SiteClient) readLoop() {
	defer close(c.pipe.done)
	var f Frame
	for {
		if err := c.fc.ReadFrame(&f); err != nil {
			c.mu.Lock()
			c.failPipe(fmt.Errorf("wire: read replies: %w", err))
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		switch f.Type {
		case FrameReplies:
			// Acks are cumulative: Seq s acknowledges every in-flight batch
			// up to and including s (the coordinator may fold the acks of
			// several reply-less batches into one frame). A sequence number
			// outside the in-flight range [ackSeq, sendSeq) is a protocol
			// violation — unknown, duplicate, or reordered.
			if c.pipe.inflight() == 0 || f.Seq < c.pipe.ackSeq || f.Seq >= c.pipe.sendSeq {
				c.failPipe(fmt.Errorf("wire: reply sequence %d outside in-flight range [%d, %d)", f.Seq, c.pipe.ackSeq, c.pipe.sendSeq))
				c.mu.Unlock()
				return
			}
			acked := int(f.Seq - c.pipe.ackSeq + 1)
			// Replies belong to the newest acked batch: the coordinator only
			// defers acks of batches that produced none.
			slot := c.pipe.slots[acked-1]
			rest := copy(c.pipe.slots, c.pipe.slots[acked:])
			c.pipe.slots = c.pipe.slots[:rest]
			now := nowNanos()
			for i := 0; i < acked; i++ {
				obsAckLatencyNs.Observe(now - c.pipe.sendTimes[i])
				if tc := c.pipe.traces[i]; tc.Sampled() {
					obs.StageSpan(tc, obs.StageSiteAck, c.pipe.sendTimes[i], now)
				}
			}
			rest = copy(c.pipe.sendTimes, c.pipe.sendTimes[acked:])
			c.pipe.sendTimes = c.pipe.sendTimes[:rest]
			rest = copy(c.pipe.traces, c.pipe.traces[acked:])
			c.pipe.traces = c.pipe.traces[:rest]
			// The acked batches are confirmed applied: recycle their replay
			// buffers for the writer.
			for i := 0; i < acked; i++ {
				c.pipe.free = append(c.pipe.free, c.pipe.unacked[i][:0])
			}
			rest = copy(c.pipe.unacked, c.pipe.unacked[acked:])
			c.pipe.unacked = c.pipe.unacked[:rest]
			c.received += len(f.Msgs)
			for _, reply := range f.Msgs {
				c.pipe.replies = append(c.pipe.replies, queuedReply{msg: reply, slot: slot})
			}
			c.pipe.ackSeq = f.Seq + 1
			if len(f.Msgs) > 0 || (c.pipe.wireEmpty() && c.pipe.held()) {
				c.pipe.ready.Store(true)
			}
			c.pipe.cond.Broadcast()
			c.mu.Unlock()
		case FrameRoutePush:
			// Server-initiated table broadcast: hand it to the callback
			// outside the lock (it may park the table in a mailbox) and keep
			// reading — the push is not an ack and returns no credit.
			c.mu.Unlock()
			c.routePush(&f)
			continue
		case FrameError:
			c.failPipe(coordError(&f))
			c.mu.Unlock()
			return
		default:
			c.failPipe(errors.New("wire: unexpected frame " + f.Type))
			c.mu.Unlock()
			return
		}
	}
}
