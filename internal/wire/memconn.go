package wire

import (
	"io"
	"sync"

	"repro/internal/netsim"
)

// memPipeDepth bounds each direction of an in-memory frame pipe. The credit
// window is still what bounds a site's writer; the queue depth only stands in
// for the kernel socket buffer, absorbing a short burst before a write
// blocks.
const memPipeDepth = 16

// MemConn is one end of an in-process frame pipe: the in-memory backend
// behind the frameConn seam. Frames pass by deep copy instead of being
// encoded, so tests of connection behaviour (backpressure, failover,
// replication) run without TCP sockets, ephemeral ports, or kernel buffer
// timing — faster and with one less source of flake. A MemConn is wired to a
// CoordinatorServer by ServeMem (server end) and DialSiteMem / NewMemSync
// (client ends); Close tears down both directions, unblocking any pending
// read or write on either side, exactly like closing a socket.
type MemConn struct {
	read, write *memQueue
}

type memQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames []Frame
	closed bool
}

func newMemQueue() *memQueue {
	q := &memQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// newMemPipe returns two connected MemConn ends: whatever one writes, the
// other reads, in order.
func newMemPipe() (a, b *MemConn) {
	ab, ba := newMemQueue(), newMemQueue()
	return &MemConn{read: ba, write: ab}, &MemConn{read: ab, write: ba}
}

// copyFrame deep-copies a frame so both sides can keep reusing their own
// frame buffers, mirroring what an encode/decode cycle guarantees on a real
// connection.
func copyFrame(f *Frame) Frame {
	g := *f
	if f.Msgs != nil {
		g.Msgs = append([]netsim.Message(nil), f.Msgs...)
	}
	if f.Batch != nil {
		g.Batch = append([]BatchEntry(nil), f.Batch...)
	}
	if f.Entries != nil {
		g.Entries = append([]netsim.SampleEntry(nil), f.Entries...)
	}
	if f.Bounds != nil {
		g.Bounds = append([]uint64(nil), f.Bounds...)
	}
	if f.Slots != nil {
		g.Slots = append([]int64(nil), f.Slots...)
	}
	if f.Groups != nil {
		g.Groups = make([][]string, len(f.Groups))
		for i, grp := range f.Groups {
			g.Groups[i] = append([]string(nil), grp...)
		}
	}
	return g
}

func (q *memQueue) push(f *Frame) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.frames) >= memPipeDepth && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return io.ErrClosedPipe
	}
	q.frames = append(q.frames, copyFrame(f))
	q.cond.Broadcast()
	return nil
}

func (q *memQueue) pop(f *Frame) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.frames) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.frames) == 0 {
		return io.EOF // closed and drained, like a shut-down socket
	}
	*f = q.frames[0]
	q.frames[0] = Frame{} // release references held by the queue slot
	q.frames = q.frames[1:]
	q.cond.Broadcast()
	return nil
}

func (q *memQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// ReadFrame implements frameConn.
func (c *MemConn) ReadFrame(f *Frame) error { return c.read.pop(f) }

// WriteFrame implements frameConn. Delivery is immediate (there is no
// encode buffer), so Flush is a no-op.
func (c *MemConn) WriteFrame(f *Frame) error { return c.write.push(f) }

// Flush implements frameConn.
func (c *MemConn) Flush() error { return nil }

// Close tears down both directions. Pending and future reads on either end
// fail once buffered frames are drained; pending and future writes fail
// immediately.
func (c *MemConn) Close() error {
	c.read.close()
	c.write.close()
	return nil
}

// ServeMem attaches a new in-memory connection to the server and returns the
// client end. The connection is served exactly like an accepted TCP one —
// same dispatch loop, same read pump, force-closed by Close — only the
// socket and the encoding are skipped.
func (s *CoordinatorServer) ServeMem() *MemConn {
	client, server := newMemPipe()
	// Track and count the handler in one critical section: the wg.Add must
	// be ordered before a concurrent Close's wg.Wait (WaitGroup forbids an
	// Add from zero racing a Wait), and the closing check makes Close-then-
	// ServeMem hand back a conn that just reads EOF.
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		server.Close()
		return client
	}
	s.conns[server] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		defer s.untrack(server)
		defer server.Close()
		s.serve(server, server)
	}()
	return client
}

// DialSiteMem connects the given site node to an in-process coordinator
// server over an in-memory frame pipe and announces its site id. It behaves
// exactly like DialSiteOptions over TCP except that frames are never
// encoded.
func DialSiteMem(node netsim.SiteNode, srv *CoordinatorServer, opts Options) (*SiteClient, error) {
	fc := srv.ServeMem()
	return newSiteClient(node, fc, fc, opts)
}
