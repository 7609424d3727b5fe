package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/netsim"
)

// This file defines the unified sampler API: every coordinator-side sampler
// in the system — infinite-window, sampling-with-replacement, and
// sliding-window — exposes the same five operations (Offer, Sample,
// Threshold, Snapshot, Restore), and its entire protocol state round-trips
// through one versioned, self-describing State value.
//
// The State is the system's replication, handoff, and persistence currency:
// a replica that Restores a primary's Snapshot is byte-identical to it at
// capture time; a reshard handoff ships a filtered Snapshot; a backup is a
// Snapshot written to disk. It is the only form in which state moves between
// nodes: the wire protocol's state-frame (replication) and state-handoff
// (resharding) each carry one encoded State, so the sliding-window
// coordinator — whose state includes a treap-backed candidate store and a
// slot clock — replicates and reshards exactly like the bottom-s sampler.

// StateVersion is the current snapshot format version. Encoded states carry
// it; DecodeState rejects versions it does not know, exactly like the wire
// protocol's epoch fencing — an old node never misparses a newer snapshot.
const StateVersion = 1

// StateKind tags which sampler family a State belongs to. Restore rejects a
// State of the wrong kind: a sliding-window store must never be poured into a
// bottom-s sketch, however similar the entry layout looks.
type StateKind uint8

// State kinds.
const (
	// StateInfinite is the infinite-window bottom-s sampler: one section
	// holding the full sample, SampleSize = s.
	StateInfinite StateKind = iota + 1
	// StateWithReplacement is the s-copy with-replacement sampler: one
	// section per copy, each holding that copy's minimum-hash candidate.
	StateWithReplacement
	// StateSliding is a sliding-window sampler (coordinator offer store or
	// site store): sections hold non-dominated (key, hash, expiry) tuples
	// plus the current candidate, and Slot carries the slot clock.
	StateSliding
)

// String implements fmt.Stringer.
func (k StateKind) String() string {
	switch k {
	case StateInfinite:
		return "infinite"
	case StateWithReplacement:
		return "with-replacement"
	case StateSliding:
		return "sliding"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// SectionState is one section of a State: the state of one sampler copy.
// Single-sketch samplers have exactly one section; the with-replacement and
// multi-window samplers have one per copy, in copy order.
type SectionState struct {
	// Candidate is the copy's current candidate sample, if it has one: the
	// with-replacement copy's minimum, or a sliding sampler's (e*, u*, t*).
	Candidate *netsim.SampleEntry `json:"candidate,omitempty"`
	// Entries is the section's stored entry set: the bottom-s sample
	// (infinite) or the non-dominated tuple store (sliding), in ascending
	// hash order.
	Entries []netsim.SampleEntry `json:"entries,omitempty"`
	// Slot is the section's own slot clock, for samplers whose copies
	// advance independently (the multi-copy sliding sampler: each copy's
	// expiry horizon is its own last-processed slot, which can trail the
	// envelope's). Single-clock samplers leave it 0 and use State.Slot.
	// Encoded as a trailing section field, so version-1 decoders that
	// predate it skip it under the section length prefix.
	Slot int64 `json:"slot,omitempty"`
}

// State is a versioned, self-describing snapshot of a Sampler. It is the
// value every coordinator's Snapshot returns and Restore accepts, and what
// the wire protocol's generic state frames carry between nodes.
type State struct {
	// Version is the snapshot format version (StateVersion when produced by
	// this code). DecodeState fences unknown versions.
	Version int `json:"version"`
	// Kind tags the sampler family; Restore rejects mismatches.
	Kind StateKind `json:"kind"`
	// SampleSize is s: the bottom-s capacity (infinite) or the copy count
	// (with-replacement); 1 for single-candidate sliding samplers. Restore
	// rejects mismatches — restoring an s=32 snapshot into an s=16 sampler
	// would silently change the sampler's semantics.
	SampleSize int `json:"sample_size"`
	// Slot is the sampler's slot clock: the highest slot it has processed.
	// Sliding-window expiry is evaluated against it; slot-free samplers
	// leave it 0.
	Slot int64 `json:"slot,omitempty"`
	// Sections holds one SectionState per sampler copy.
	Sections []SectionState `json:"sections"`
}

// Offer is one element observation presented to a Sampler: the element, its
// unit hash under the sampler's (copy's) hash function, the slot it arrived
// in, and — for windowed samplers — the last slot at which it is still live.
type Offer struct {
	Key    string
	Hash   float64
	Copy   int   // sampler copy index (with-replacement); 0 otherwise
	Slot   int64 // arrival slot
	Expiry int64 // last live slot (windowed samplers); ignored otherwise
}

// Sampler is the unified sampler API: the operations every coordinator-side
// sampler supports regardless of window semantics. Snapshot and Restore make
// the sampler's full protocol state a first-class value, which is what lets
// replication, failover, reshard handoff, and persistence treat all sampler
// kinds uniformly (see internal/wire's state frames and internal/replica).
type Sampler interface {
	// Offer presents one element observation. It reports whether the
	// sampler's observable sample changed.
	Offer(o Offer) bool
	// Sample returns the sampler's current sample in ascending hash order.
	Sample() []netsim.SampleEntry
	// Threshold returns the sampler's current selectivity threshold u: an
	// element can change the sample only if its hash is below u.
	Threshold() float64
	// Snapshot captures the sampler's entire protocol state.
	Snapshot() State
	// Restore replaces the sampler's entire state with the snapshot. It
	// rejects snapshots of the wrong version, kind, or sample size.
	// Restoring the same snapshot twice is idempotent, and
	// Snapshot → Restore → Snapshot round-trips byte-identically.
	Restore(State) error
}

// Snapshotter is the state-capture half of Sampler: anything whose full
// state round-trips through a State. Site-side stores (sliding.Site)
// implement it without being full Samplers; transport and cluster layers
// depend only on this seam.
type Snapshotter interface {
	Snapshot() State
	Restore(State) error
}

// ValidateState checks a snapshot's envelope — version, kind, sample size —
// against the restoring sampler's; Restore implementations outside this
// package call it before touching any entries.
func ValidateState(st State, kind StateKind, sampleSize int) error {
	return st.validate(kind, sampleSize)
}

// validate checks the envelope fields a Restore must agree with.
func (st *State) validate(kind StateKind, sampleSize int) error {
	if st.Version != StateVersion {
		return fmt.Errorf("core: snapshot version %d not supported (want %d)", st.Version, StateVersion)
	}
	if st.Kind != kind {
		return fmt.Errorf("core: cannot restore a %s snapshot into a %s sampler", st.Kind, kind)
	}
	if st.SampleSize != sampleSize {
		return fmt.Errorf("core: snapshot sample size %d does not match sampler's %d", st.SampleSize, sampleSize)
	}
	return nil
}

// FilterState returns st with every entry (and candidate) whose key fails
// keep removed. It is the reshard prune/handoff primitive: a coordinator
// restricting itself to a routing-hash range filters its own snapshot, and a
// handoff receiver filters the donor's snapshot to the moved range.
func FilterState(st State, keep func(key string) bool) State {
	out := st
	out.Sections = make([]SectionState, len(st.Sections))
	for i, sec := range st.Sections {
		kept := SectionState{Slot: sec.Slot}
		if sec.Candidate != nil && keep(sec.Candidate.Key) {
			c := *sec.Candidate
			kept.Candidate = &c
		}
		for _, e := range sec.Entries {
			if keep(e.Key) {
				kept.Entries = append(kept.Entries, e)
			}
		}
		out.Sections[i] = kept
	}
	return out
}

// MergeStates unions src into dst and returns the result: per matching
// section, src's candidate and entries are appended to dst's entry set, and
// the slot clock advances to the later of the two. Restoring the merged
// state applies each sampler kind's own union semantics (bottom-s of the
// union, per-copy minimum, non-dominated tuple set), so
// Restore(MergeStates(Snapshot(), incoming)) is the generic absorption step
// of a reshard handoff. Kinds and section counts must match.
func MergeStates(dst, src State) (State, error) {
	if dst.Version != src.Version {
		return State{}, fmt.Errorf("core: cannot merge snapshot versions %d and %d", dst.Version, src.Version)
	}
	if dst.Kind != src.Kind {
		return State{}, fmt.Errorf("core: cannot merge a %s snapshot into a %s one", src.Kind, dst.Kind)
	}
	if len(dst.Sections) != len(src.Sections) {
		return State{}, fmt.Errorf("core: cannot merge snapshots with %d and %d sections", len(src.Sections), len(dst.Sections))
	}
	out := dst
	out.Sections = make([]SectionState, len(dst.Sections))
	if src.Slot > out.Slot {
		out.Slot = src.Slot
	}
	for i := range dst.Sections {
		merged := SectionState{Candidate: dst.Sections[i].Candidate, Slot: dst.Sections[i].Slot}
		if s := src.Sections[i].Slot; s > merged.Slot {
			merged.Slot = s
		}
		merged.Entries = append(append([]netsim.SampleEntry(nil), dst.Sections[i].Entries...), src.Sections[i].Entries...)
		if c := src.Sections[i].Candidate; c != nil {
			merged.Entries = append(merged.Entries, *c)
		}
		out.Sections[i] = merged
	}
	return out, nil
}

// StateEntryCount returns the total number of entries (candidates included)
// the snapshot carries — the data-motion accounting reshard reports use.
func StateEntryCount(st State) int {
	n := 0
	for _, sec := range st.Sections {
		n += len(sec.Entries)
		if sec.Candidate != nil {
			n++
		}
	}
	return n
}

// Binary encoding of a State:
//
//	u8      version                (fenced by DecodeState)
//	u8      kind
//	uvarint sampleSize
//	varint  slot
//	uvarint number of sections
//	per section:
//	  uvarint section byte length  (length-prefixed: a future minor revision
//	                                may append fields; decoders skip what
//	                                they do not know)
//	  u8      hasCandidate (0/1)
//	  [candidate entry]
//	  uvarint entry count
//	  entries: key (uvarint len + bytes), hash (8 bytes IEEE 754), expiry (varint)
//	  varint  section slot clock   (appended field; absent in pre-slot
//	                                encodings, which decode to Slot 0)
//
// The layout mirrors the wire codec's conventions (internal/wire/codec.go)
// so the encoded state embeds directly into a wire frame as one opaque blob.

func appendStateEntry(buf []byte, e netsim.SampleEntry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(e.Key)))
	buf = append(buf, e.Key...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Hash))
	buf = binary.AppendVarint(buf, e.Expiry)
	return buf
}

// uvarintLen is the encoded size of x under binary.AppendUvarint.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// varintLen is the encoded size of x under binary.AppendVarint (zigzag).
func varintLen(x int64) int {
	return uvarintLen(uint64(x)<<1 ^ uint64(x>>63))
}

// stateEntrySize is the encoded size of one entry under appendStateEntry.
func stateEntrySize(e netsim.SampleEntry) int {
	return uvarintLen(uint64(len(e.Key))) + len(e.Key) + 8 + varintLen(e.Expiry)
}

// AppendEncodedState appends st's binary encoding to buf and returns the
// extended slice. Section length prefixes are sized ahead of encoding
// instead of staged through a scratch buffer, so the whole encode allocates
// nothing when buf has capacity — the persistence spool and the replication
// plane both lean on that.
func AppendEncodedState(buf []byte, st State) []byte {
	buf = append(buf, byte(st.Version), byte(st.Kind))
	buf = binary.AppendUvarint(buf, uint64(st.SampleSize))
	buf = binary.AppendVarint(buf, st.Slot)
	buf = binary.AppendUvarint(buf, uint64(len(st.Sections)))
	for _, sec := range st.Sections {
		size := 1 // candidate flag byte
		if sec.Candidate != nil {
			size += stateEntrySize(*sec.Candidate)
		}
		size += uvarintLen(uint64(len(sec.Entries)))
		for _, e := range sec.Entries {
			size += stateEntrySize(e)
		}
		size += varintLen(sec.Slot)
		buf = binary.AppendUvarint(buf, uint64(size))
		if sec.Candidate != nil {
			buf = append(buf, 1)
			buf = appendStateEntry(buf, *sec.Candidate)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(sec.Entries)))
		for _, e := range sec.Entries {
			buf = appendStateEntry(buf, e)
		}
		buf = binary.AppendVarint(buf, sec.Slot)
	}
	return buf
}

// EncodeState renders st in the versioned binary snapshot encoding.
func EncodeState(st State) []byte { return AppendEncodedState(nil, st) }

// stateDecoder consumes the binary snapshot layout, remembering the first
// error (the same pattern as the wire codec's byteDecoder).
type stateDecoder struct {
	buf []byte
	err error
}

func (d *stateDecoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("core: %s in encoded snapshot", msg)
	}
}

func (d *stateDecoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail("truncated byte")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *stateDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *stateDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *stateDecoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)) < n {
		d.fail("truncated section")
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *stateDecoder) entry() netsim.SampleEntry {
	var e netsim.SampleEntry
	n := d.uvarint()
	if key := d.take(n); d.err == nil {
		e.Key = string(key)
	}
	if raw := d.take(8); d.err == nil {
		e.Hash = math.Float64frombits(binary.LittleEndian.Uint64(raw))
	}
	e.Expiry = d.varint()
	return e
}

// DecodeState parses a binary snapshot produced by EncodeState. Unknown
// versions are rejected up front (the version fence); unknown trailing bytes
// inside a section are skipped, so a same-version minor extension stays
// decodable.
func DecodeState(data []byte) (State, error) {
	d := &stateDecoder{buf: data}
	var st State
	st.Version = int(d.byte())
	if d.err == nil && st.Version != StateVersion {
		return State{}, fmt.Errorf("core: encoded snapshot version %d not supported (want %d)", st.Version, StateVersion)
	}
	st.Kind = StateKind(d.byte())
	st.SampleSize = int(d.uvarint())
	st.Slot = d.varint()
	sections := d.uvarint()
	if d.err == nil && sections > uint64(len(d.buf))+1 {
		return State{}, fmt.Errorf("core: implausible section count %d in encoded snapshot", sections)
	}
	for i := uint64(0); i < sections && d.err == nil; i++ {
		secLen := d.uvarint()
		raw := d.take(secLen)
		if d.err != nil {
			break
		}
		sd := &stateDecoder{buf: raw}
		var sec SectionState
		if sd.byte() == 1 {
			e := sd.entry()
			sec.Candidate = &e
		}
		count := sd.uvarint()
		if sd.err == nil && count > uint64(len(sd.buf))+1 {
			return State{}, fmt.Errorf("core: implausible entry count %d in encoded snapshot section", count)
		}
		for j := uint64(0); j < count && sd.err == nil; j++ {
			sec.Entries = append(sec.Entries, sd.entry())
		}
		if sd.err != nil {
			return State{}, sd.err
		}
		// The section slot clock was itself appended this way; encodings
		// that predate it simply end here and decode to Slot 0.
		if len(sd.buf) > 0 {
			sec.Slot = sd.varint()
			if sd.err != nil {
				return State{}, sd.err
			}
		}
		// Any remaining bytes are a same-version extension this decoder
		// predates; skipping them is the forward-compat contract.
		st.Sections = append(st.Sections, sec)
	}
	if d.err != nil {
		return State{}, d.err
	}
	return st, nil
}
