package faultnet

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/wire"
)

// nullConn swallows writes and refuses reads — a traffic sink for driving
// the injector's decision stream without a protocol peer.
type nullConn struct{}

func (nullConn) WriteFrame(*wire.Frame) error { return nil }
func (nullConn) ReadFrame(*wire.Frame) error  { return errors.New("nullConn: no frames") }
func (nullConn) Flush() error                 { return nil }

// pump drives a fixed frame sequence through a conn and returns its trace.
func pump(seed int64, sc Scenario) []string {
	c := Wrap(nullConn{}, seed, sc)
	types := []string{wire.FrameBatch, wire.FrameBatch, wire.FrameState, wire.FrameLeaseRenew}
	for i := 0; i < 400; i++ {
		_ = c.WriteFrame(&wire.Frame{Type: types[i%len(types)]})
	}
	return c.Trace()
}

// TestDeterministicFaultSequence pins the package's core contract: the same
// seed and the same traffic produce the same fault sequence, byte for byte —
// a failing chaos run replays exactly from its seed.
func TestDeterministicFaultSequence(t *testing.T) {
	sc := Scenario{Drop: 0.1, Dup: 0.1, Delay: 0.1, MaxDelay: time.Microsecond}
	a, b := pump(99, sc), pump(99, sc)
	if len(a) == 0 {
		t.Fatal("no faults injected over 400 frames at 30% fault rate")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different fault sequences:\n a: %v\n b: %v", a, b)
	}
	if c := pump(100, sc); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

// TestCutSeversAndHeals checks partitions fail fast (never hang) in exactly
// the severed direction, and that healing restores the link.
func TestCutSeversAndHeals(t *testing.T) {
	c := Wrap(nullConn{}, 1, Scenario{})
	if err := c.WriteFrame(&wire.Frame{Type: wire.FrameBatch}); err != nil {
		t.Fatalf("clean write failed: %v", err)
	}
	c.Cut(Send, true)
	if err := c.WriteFrame(&wire.Frame{Type: wire.FrameBatch}); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("write on cut link: err = %v, want ErrPartitioned", err)
	}
	if err := c.ReadFrame(&wire.Frame{}); errors.Is(err, ErrPartitioned) {
		t.Fatal("one-way Send cut severed the read direction too")
	}
	c.Cut(Send, false)
	if err := c.WriteFrame(&wire.Frame{Type: wire.FrameBatch}); err != nil {
		t.Fatalf("write after heal failed: %v", err)
	}
}

// TestInjectorPartitionCoversRedials pins the redial hole: a connection
// wrapped while a partition holds must come up severed — the subsystems
// under test redial failed links every round, and a redial during an outage
// must not heal it.
func TestInjectorPartitionCoversRedials(t *testing.T) {
	in := NewInjector(7, Scenario{})
	before := in.Wrap(nullConn{})
	in.Partition(Both, true)
	during := in.Wrap(nullConn{})
	for i, fc := range []wire.FrameConn{before, during} {
		if err := fc.WriteFrame(&wire.Frame{Type: wire.FrameBatch}); !errors.Is(err, ErrPartitioned) {
			t.Fatalf("conn %d: write during partition: err = %v, want ErrPartitioned", i, err)
		}
	}
	in.Partition(Both, false)
	for i, fc := range []wire.FrameConn{before, during} {
		if err := fc.WriteFrame(&wire.Frame{Type: wire.FrameBatch}); err != nil {
			t.Fatalf("conn %d: write after heal: %v", i, err)
		}
	}
}

// TestDuplicatedStateFrameIsIdempotent is the protocol-level regression for
// frame duplication, the one fault faultnet delivers silently: a state-frame
// pushed through an always-duplicate link reaches the replica twice, and the
// replica's sample must come out byte-identical to the primary's — state
// frames are absolute, so applying one twice is applying it once.
func TestDuplicatedStateFrameIsIdempotent(t *testing.T) {
	const s = 8
	hasher := hashing.NewMurmur2(5)
	primary := wire.NewCoordinatorServer(core.NewInfiniteCoordinator(s))
	replica := wire.NewCoordinatorServer(core.NewInfiniteCoordinator(s))

	site := core.NewInfiniteSite(0, hasher)
	client, err := wire.DialSiteMem(site, primary, wire.Options{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := client.Observe(fmt.Sprintf("dup-%d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	inj := NewInjector(13, Scenario{Dup: 1})
	push := wire.NewMemSyncWrap(replica, inj.Wrap)
	st, _, slot, _ := primary.SnapshotSync()
	if _, err := push.SyncFrame(0, 1, slot, core.EncodeState(st)); err != nil {
		t.Fatalf("sync over duplicating link: %v", err)
	}
	if dups := inj.Trace(); len(dups) == 0 {
		t.Fatal("the duplicating link never duplicated")
	}

	want, got := primary.Sample(), replica.Sample()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replica diverged after duplicated state frame:\n got: %v\nwant: %v", got, want)
	}
}
