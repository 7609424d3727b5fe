// Package netsim is the distributed-stream simulation substrate: it plays an
// arrival stream into protocol nodes (k sites plus one coordinator), routes
// and counts every message exchanged, and records the metrics the paper's
// evaluation reports (message counts over time, per-site memory).
//
// Two engines are provided.
//
//   - The sequential engine processes arrivals one at a time in slot order
//     and delivers messages instantly, exactly matching the paper's
//     synchronous, zero-delay model. It is deterministic, which makes it the
//     engine of record for every figure.
//
//   - The concurrent engine runs every site as its own goroutine and the
//     coordinator as another, communicating over channels with per-slot
//     barriers. It demonstrates a realistic deployment shape and is used to
//     validate that protocol correctness does not depend on the sequential
//     engine's scheduling. (Message counts can differ slightly from the
//     sequential engine because sites race to update the shared threshold;
//     correctness invariants still hold.)
//
// Protocol logic lives elsewhere (internal/core, internal/sliding); nodes
// implement the SiteNode and CoordinatorNode interfaces defined here.
package netsim

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/hashing"
	"repro/internal/stream"
)

// CoordinatorID is the destination used for site-to-coordinator messages.
const CoordinatorID = -1

// Kind discriminates protocol message types. One message struct is shared by
// all protocols; each uses the fields it needs.
type Kind uint8

// Message kinds.
const (
	// KindOffer is a site-to-coordinator message carrying a candidate
	// element (infinite window: Algorithm 1 line 4).
	KindOffer Kind = iota + 1
	// KindThreshold is a coordinator-to-site message carrying the refreshed
	// global threshold u (infinite window: Algorithm 2 line 11).
	KindThreshold
	// KindWindowOffer is a site-to-coordinator message carrying a candidate
	// element and its expiry (sliding window: Algorithm 3 lines 13 and 24).
	KindWindowOffer
	// KindWindowSample is a coordinator-to-site message carrying the current
	// global sample and its expiry (sliding window: Algorithm 4 line 6).
	KindWindowSample
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindOffer:
		return "offer"
	case KindThreshold:
		return "threshold"
	case KindWindowOffer:
		return "window-offer"
	case KindWindowSample:
		return "window-sample"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is a protocol message. Every message in the simulated protocols is
// small and of constant size, matching the paper's accounting where message
// count is also a proxy for bytes transferred.
type Message struct {
	Kind   Kind
	Key    string  // element identifier (offers and window samples)
	Hash   float64 // h(Key)
	U      float64 // threshold value (threshold messages)
	Expiry int64   // expiry slot (sliding-window messages)
	Copy   int     // sampler copy index (sampling with replacement)
	From   int     // sending node: a site index or CoordinatorID; set by the engine
}

// SampleEntry is one element of the coordinator's current sample.
type SampleEntry struct {
	Key    string
	Hash   float64
	Expiry int64
}

// Envelope is a routed message: a destination plus the payload.
type Envelope struct {
	To        int // site index, or CoordinatorID
	Broadcast bool
	Msg       Message
}

// Outbox collects the messages a node wants to send during one callback.
// The engine drains it, stamps the sender, counts the messages and delivers
// them.
type Outbox struct {
	envelopes []Envelope
}

// ToCoordinator queues a message to the coordinator.
func (o *Outbox) ToCoordinator(m Message) {
	o.envelopes = append(o.envelopes, Envelope{To: CoordinatorID, Msg: m})
}

// ToSite queues a message to one site.
func (o *Outbox) ToSite(site int, m Message) {
	o.envelopes = append(o.envelopes, Envelope{To: site, Msg: m})
}

// Broadcast queues a message to every site. The engine counts it as k
// messages, matching the paper's accounting for Algorithm Broadcast.
func (o *Outbox) Broadcast(m Message) {
	o.envelopes = append(o.envelopes, Envelope{Broadcast: true, Msg: m})
}

// drain empties the outbox and returns what it held.
func (o *Outbox) Drain() []Envelope {
	e := o.envelopes
	o.envelopes = nil
	return e
}

// Reset empties the outbox while keeping its capacity, so a long-lived
// scratch outbox can be reused across callbacks without reallocating.
// The envelopes returned by a previous Envelopes call are invalidated.
func (o *Outbox) Reset() { o.envelopes = o.envelopes[:0] }

// Envelopes returns the queued envelopes without clearing them. Unlike
// Drain, ownership stays with the outbox: the slice is only valid until the
// next Reset or queueing call.
func (o *Outbox) Envelopes() []Envelope { return o.envelopes }

// SiteNode is the site half of a protocol.
type SiteNode interface {
	// ID returns the site index in [0, k).
	ID() int
	// OnArrival processes one element observed at this site at the given
	// slot, queuing any messages on out.
	OnArrival(key string, slot int64, out *Outbox)
	// OnMessage handles a message from the coordinator.
	OnMessage(msg Message, slot int64, out *Outbox)
	// OnSlotEnd is invoked once per slot after all arrivals of the slot have
	// been processed at every site. Sliding-window sites use it to expire
	// their sample and promote a replacement.
	OnSlotEnd(slot int64, out *Outbox)
	// Memory returns the number of stored tuples, the per-site memory
	// measure used by the sliding-window experiments.
	Memory() int
}

// DigestSite is a SiteNode whose arrival filter can start from the key's
// 64-bit digest under its own hash function. A caller that has already
// hashed the key (a shard router picking the owner) hands the digest over
// instead of having the node hash the key a second time. It may do so only
// when its digest comes from the node's Hasher, or one of the same kind and
// seed; otherwise it calls OnArrival.
type DigestSite interface {
	SiteNode
	// Hasher returns the hash function the node filters with.
	Hasher() hashing.UnitHasher
	// OnDigest is OnArrival for a key whose Hasher().Hash digest is d.
	OnDigest(key string, d uint64, slot int64, out *Outbox)
}

// CoordinatorNode is the coordinator half of a protocol.
type CoordinatorNode interface {
	// OnMessage handles a message from a site (msg.From identifies it).
	OnMessage(msg Message, slot int64, out *Outbox)
	// OnSlotEnd is invoked once per slot after all sites have finished it.
	OnSlotEnd(slot int64, out *Outbox)
	// Sample returns the coordinator's current distinct sample.
	Sample() []SampleEntry
}

// TimelinePoint records cumulative message cost after a number of arrivals,
// the series plotted by Figures 5.1 and 5.4.
type TimelinePoint struct {
	Arrivals int
	Messages int
}

// MemoryPoint records per-site memory at the end of a slot, the series
// plotted by Figures 5.7 and 5.9.
type MemoryPoint struct {
	Slot        int64
	MeanPerSite float64
	MaxPerSite  int
}

// Metrics aggregates everything an engine run measured.
type Metrics struct {
	Arrivals     int
	UpMessages   int   // site -> coordinator
	DownMessages int   // coordinator -> site (broadcast counted once per site)
	PerSiteUp    []int // indexed by site
	PerSiteDown  []int
	Timeline     []TimelinePoint
	Memory       []MemoryPoint
	FinalSample  []SampleEntry
}

// TotalMessages returns the total message count, the paper's cost metric.
func (m *Metrics) TotalMessages() int { return m.UpMessages + m.DownMessages }

// MeanMemory returns the mean of the per-slot mean per-site memory, the
// quantity plotted on the sliding-window memory figures.
func (m *Metrics) MeanMemory() float64 {
	if len(m.Memory) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range m.Memory {
		sum += p.MeanPerSite
	}
	return sum / float64(len(m.Memory))
}

// MaxMemory returns the largest per-site memory observed at any sampled slot.
func (m *Metrics) MaxMemory() int {
	max := 0
	for _, p := range m.Memory {
		if p.MaxPerSite > max {
			max = p.MaxPerSite
		}
	}
	return max
}

// Runner drives a set of protocol nodes over an arrival stream.
type Runner struct {
	Sites       []SiteNode
	Coordinator CoordinatorNode
	// TimelineEvery records a TimelinePoint every that many arrivals
	// (0 disables the timeline).
	TimelineEvery int
	// MemoryEvery samples per-site memory at the end of every that many
	// slots (0 disables memory sampling).
	MemoryEvery int64
}

// ErrNoNodes is returned when a Runner is missing sites or a coordinator.
var ErrNoNodes = errors.New("netsim: runner needs at least one site and a coordinator")

func (r *Runner) validate() error {
	if len(r.Sites) == 0 || r.Coordinator == nil {
		return ErrNoNodes
	}
	for i, s := range r.Sites {
		if s.ID() != i {
			return fmt.Errorf("netsim: site at position %d reports ID %d", i, s.ID())
		}
	}
	return nil
}

// groupBySlot orders arrivals by slot and returns the sorted copy plus the
// slot boundaries.
func groupBySlot(arrivals []stream.Arrival) []stream.Arrival {
	sorted := append([]stream.Arrival(nil), arrivals...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Slot < sorted[j].Slot })
	return sorted
}

// RunSequential plays the arrival stream through the nodes with instant,
// in-order message delivery. It returns the collected metrics.
func (r *Runner) RunSequential(arrivals []stream.Arrival) (*Metrics, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	k := len(r.Sites)
	m := &Metrics{PerSiteUp: make([]int, k), PerSiteDown: make([]int, k)}
	if len(arrivals) == 0 {
		m.FinalSample = r.Coordinator.Sample()
		return m, nil
	}
	sorted := groupBySlot(arrivals)
	minSlot, maxSlot := sorted[0].Slot, sorted[len(sorted)-1].Slot

	out := &Outbox{}
	idx := 0
	for slot := minSlot; slot <= maxSlot; slot++ {
		// Arrivals of this slot, in stream order.
		for idx < len(sorted) && sorted[idx].Slot == slot {
			a := sorted[idx]
			idx++
			if a.Site < 0 || a.Site >= k {
				return nil, fmt.Errorf("netsim: arrival targets site %d out of range [0,%d)", a.Site, k)
			}
			site := r.Sites[a.Site]
			site.OnArrival(a.Key, slot, out)
			if err := r.deliver(out.Drain(), a.Site, slot, m, out); err != nil {
				return nil, err
			}
			m.Arrivals++
			if r.TimelineEvery > 0 && m.Arrivals%r.TimelineEvery == 0 {
				m.Timeline = append(m.Timeline, TimelinePoint{Arrivals: m.Arrivals, Messages: m.TotalMessages()})
			}
		}
		// End of slot: sites first (expiry-driven sends), then coordinator.
		for siteID, site := range r.Sites {
			site.OnSlotEnd(slot, out)
			if err := r.deliver(out.Drain(), siteID, slot, m, out); err != nil {
				return nil, err
			}
		}
		r.Coordinator.OnSlotEnd(slot, out)
		if err := r.deliver(out.Drain(), CoordinatorID, slot, m, out); err != nil {
			return nil, err
		}
		if r.MemoryEvery > 0 && (slot-minSlot)%r.MemoryEvery == 0 {
			m.Memory = append(m.Memory, r.memoryPoint(slot))
		}
	}
	if r.TimelineEvery > 0 {
		m.Timeline = append(m.Timeline, TimelinePoint{Arrivals: m.Arrivals, Messages: m.TotalMessages()})
	}
	m.FinalSample = r.Coordinator.Sample()
	return m, nil
}

func (r *Runner) memoryPoint(slot int64) MemoryPoint {
	total, max := 0, 0
	for _, s := range r.Sites {
		mem := s.Memory()
		total += mem
		if mem > max {
			max = mem
		}
	}
	return MemoryPoint{Slot: slot, MeanPerSite: float64(total) / float64(len(r.Sites)), MaxPerSite: max}
}

// deliver routes every envelope produced by node `from`, counting messages
// and recursively delivering any messages the recipients produce in turn.
// The scratch outbox is reused for recipient callbacks.
func (r *Runner) deliver(envelopes []Envelope, from int, slot int64, m *Metrics, scratch *Outbox) error {
	type pending struct {
		env  Envelope
		from int
	}
	queue := make([]pending, 0, len(envelopes))
	for _, e := range envelopes {
		queue = append(queue, pending{env: e, from: from})
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		env := p.env
		env.Msg.From = p.from

		if env.Broadcast {
			// Expand a broadcast into one message per site.
			for siteID := range r.Sites {
				queue = append(queue, pending{
					env:  Envelope{To: siteID, Msg: env.Msg},
					from: p.from,
				})
			}
			continue
		}

		switch {
		case env.To == CoordinatorID:
			if p.from == CoordinatorID {
				return errors.New("netsim: coordinator attempted to message itself")
			}
			m.UpMessages++
			m.PerSiteUp[p.from]++
			r.Coordinator.OnMessage(env.Msg, slot, scratch)
			for _, next := range scratch.Drain() {
				queue = append(queue, pending{env: next, from: CoordinatorID})
			}
		default:
			if env.To < 0 || env.To >= len(r.Sites) {
				return fmt.Errorf("netsim: message addressed to unknown site %d", env.To)
			}
			m.DownMessages++
			m.PerSiteDown[env.To]++
			r.Sites[env.To].OnMessage(env.Msg, slot, scratch)
			for _, next := range scratch.Drain() {
				queue = append(queue, pending{env: next, from: env.To})
			}
		}
	}
	return nil
}

// coordinatorRequest is a synchronous request from a site goroutine to the
// coordinator goroutine in the concurrent engine.
type coordinatorRequest struct {
	msg   Message
	slot  int64
	reply chan []Message // messages addressed back to the requesting site
}

// RunConcurrent plays the arrival stream with one goroutine per site and one
// for the coordinator, synchronizing on slot boundaries. It supports
// protocols whose coordinator only ever replies to the requesting site
// (true for the proposed infinite-window and sliding-window algorithms; not
// true for Algorithm Broadcast, which must use RunSequential).
func (r *Runner) RunConcurrent(arrivals []stream.Arrival) (*Metrics, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	k := len(r.Sites)
	m := &Metrics{PerSiteUp: make([]int, k), PerSiteDown: make([]int, k)}
	if len(arrivals) == 0 {
		m.FinalSample = r.Coordinator.Sample()
		return m, nil
	}
	sorted := groupBySlot(arrivals)
	minSlot, maxSlot := sorted[0].Slot, sorted[len(sorted)-1].Slot

	// Pre-split arrivals per site per slot index.
	perSite := make([]map[int64][]string, k)
	for i := range perSite {
		perSite[i] = make(map[int64][]string)
	}
	for _, a := range sorted {
		if a.Site < 0 || a.Site >= k {
			return nil, fmt.Errorf("netsim: arrival targets site %d out of range [0,%d)", a.Site, k)
		}
		perSite[a.Site][a.Slot] = append(perSite[a.Site][a.Slot], a.Key)
	}

	requests := make(chan coordinatorRequest, k)
	coordDone := make(chan error, 1)

	// Coordinator goroutine: serializes OnMessage calls and enforces the
	// reply-to-sender-only restriction.
	go func() {
		out := &Outbox{}
		for req := range requests {
			r.Coordinator.OnMessage(req.msg, req.slot, out)
			var replies []Message
			bad := false
			for _, env := range out.Drain() {
				if env.Broadcast || env.To != req.msg.From {
					bad = true
					break
				}
				reply := env.Msg
				reply.From = CoordinatorID
				replies = append(replies, reply)
			}
			if bad {
				req.reply <- nil
				coordDone <- errors.New("netsim: concurrent engine requires the coordinator to reply only to the requesting site")
				// Keep draining so site goroutines do not block.
				for rest := range requests {
					rest.reply <- nil
				}
				return
			}
			req.reply <- replies
		}
		coordDone <- nil
	}()

	var (
		mu       sync.Mutex
		firstErr error
	)
	record := func(siteID, up, down int) {
		mu.Lock()
		m.UpMessages += up
		m.DownMessages += down
		m.PerSiteUp[siteID] += up
		m.PerSiteDown[siteID] += down
		mu.Unlock()
	}
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// exchange sends every coordinator-bound message in envs and feeds the
	// replies back into the site, looping until the site stops talking.
	exchange := func(site SiteNode, envs []Envelope, slot int64, out *Outbox) {
		queue := envs
		for len(queue) > 0 {
			env := queue[0]
			queue = queue[1:]
			if env.Broadcast || env.To != CoordinatorID {
				fail(errors.New("netsim: concurrent engine only supports site-to-coordinator sends"))
				return
			}
			msg := env.Msg
			msg.From = site.ID()
			replyCh := make(chan []Message, 1)
			requests <- coordinatorRequest{msg: msg, slot: slot, reply: replyCh}
			replies := <-replyCh
			record(site.ID(), 1, len(replies))
			for _, reply := range replies {
				site.OnMessage(reply, slot, out)
				queue = append(queue, out.Drain()...)
			}
		}
	}

	arrivalsTotal := 0
	for slot := minSlot; slot <= maxSlot; slot++ {
		var wg sync.WaitGroup
		for _, site := range r.Sites {
			wg.Add(1)
			go func(site SiteNode) {
				defer wg.Done()
				out := &Outbox{}
				for _, key := range perSite[site.ID()][slot] {
					site.OnArrival(key, slot, out)
					exchange(site, out.Drain(), slot, out)
				}
				site.OnSlotEnd(slot, out)
				exchange(site, out.Drain(), slot, out)
			}(site)
		}
		wg.Wait()
		if firstErr != nil {
			close(requests)
			<-coordDone
			return nil, firstErr
		}
		// Coordinator slot end runs on the main goroutine; sites are idle.
		out := &Outbox{}
		r.Coordinator.OnSlotEnd(slot, out)
		if leftovers := out.Drain(); len(leftovers) > 0 {
			close(requests)
			<-coordDone
			return nil, errors.New("netsim: concurrent engine does not support coordinator slot-end messages")
		}
		for _, site := range r.Sites {
			arrivalsTotal += len(perSite[site.ID()][slot])
		}
		if r.MemoryEvery > 0 && (slot-minSlot)%r.MemoryEvery == 0 {
			m.Memory = append(m.Memory, r.memoryPoint(slot))
		}
		if r.TimelineEvery > 0 {
			m.Timeline = append(m.Timeline, TimelinePoint{Arrivals: arrivalsTotal, Messages: m.TotalMessages()})
		}
	}
	close(requests)
	if err := <-coordDone; err != nil {
		return nil, err
	}
	m.Arrivals = arrivalsTotal
	m.FinalSample = r.Coordinator.Sample()
	return m, nil
}
