package cluster

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/sliding"
	"repro/internal/wire"
)

// mergeOracle is Merge as a key map plus a sort: keep each key's first
// occurrence in input order, sort the union by (Hash, Key), truncate.
// TestMergeMatchesOracle holds the linear merge to it.
func mergeOracle(sampleSize int, shardSamples ...[]netsim.SampleEntry) []netsim.SampleEntry {
	var union []netsim.SampleEntry
	seen := make(map[string]struct{})
	for _, sample := range shardSamples {
		for _, e := range sample {
			if _, dup := seen[e.Key]; dup {
				continue
			}
			seen[e.Key] = struct{}{}
			union = append(union, e)
		}
	}
	sort.Slice(union, func(i, j int) bool {
		if union[i].Hash != union[j].Hash {
			return union[i].Hash < union[j].Hash
		}
		return union[i].Key < union[j].Key
	})
	if sampleSize > 0 && len(union) > sampleSize {
		union = union[:sampleSize]
	}
	return union
}

// TestMergeMatchesOracle compares Merge with mergeOracle on seeded random
// inputs: 0-6 inputs (nil and empty ones included) drawn from a small key
// pool, so one key lands in several inputs with a different Expiry in each
// and the lowest-indexed input's copy must win; a few distinct keys share a
// hash; each input is in (Hash, Key) order, in hash order with tied keys
// reversed (as a coordinator's sketch may hold them), or shuffled. Every
// input must be left unchanged, and the result must not alias one.
func TestMergeMatchesOracle(t *testing.T) {
	const (
		trials = 3000
		pool   = 24
	)
	rng := rand.New(rand.NewPCG(23, 1))
	sizes := []int{-1, 0, 1, 3, 64, pool + 1}
	byHashKeyDesc := func(a, b netsim.SampleEntry) int {
		if a.Hash != b.Hash {
			return compareEntries(a, b)
		}
		return compareEntries(b, a)
	}
	for trial := range trials {
		// One hash per key; about a quarter of the keys share a hash with
		// another key.
		hashes := make([]float64, pool)
		for k := range hashes {
			hashes[k] = rng.Float64()
			if k > 0 && rng.IntN(4) == 0 {
				hashes[k] = hashes[rng.IntN(k)]
			}
		}
		inputs := make([][]netsim.SampleEntry, rng.IntN(7))
		for i := range inputs {
			switch rng.IntN(6) {
			case 0:
				continue // nil
			case 1:
				inputs[i] = []netsim.SampleEntry{}
				continue
			}
			keys := rng.Perm(pool)[:1+rng.IntN(pool)]
			in := make([]netsim.SampleEntry, len(keys))
			for n, k := range keys {
				in[n] = netsim.SampleEntry{Key: fmt.Sprintf("k%02d", k), Hash: hashes[k], Expiry: int64(100*(i+1) + k)}
			}
			switch rng.IntN(3) {
			case 0:
				slices.SortFunc(in, compareEntries)
			case 1:
				slices.SortFunc(in, byHashKeyDesc)
			}
			inputs[i] = in
		}
		before := make([][]netsim.SampleEntry, len(inputs))
		for i, in := range inputs {
			before[i] = slices.Clone(in)
		}
		size := sizes[rng.IntN(len(sizes))]

		got := Merge(size, inputs...)
		want := mergeOracle(size, inputs...)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("trial %d: Merge(%d) over %d inputs\n got  %v\n want %v", trial, size, len(inputs), got, want)
		}
		for n := range got {
			got[n] = netsim.SampleEntry{Key: "overwritten"}
		}
		for i := range inputs {
			if !slices.Equal(inputs[i], before[i]) {
				t.Fatalf("trial %d: Merge changed input %d\n now    %v\n before %v", trial, i, inputs[i], before[i])
			}
		}
	}
}

// TestMergeAllocs pins the merge's cost on in-order shard samples: one
// slice of input heads and the result, with no key map and no sorted copy.
func TestMergeAllocs(t *testing.T) {
	a, b := shardSamples(64)
	if allocs := testing.AllocsPerRun(100, func() { _ = Merge(64, a, b) }); allocs > 2 {
		t.Fatalf("Merge of two in-order samples made %.0f allocations, want at most 2", allocs)
	}
}

// shardSamples returns the two shards' bottom-s samples of 8·s Enron-like
// keys split by a two-shard router, each as its coordinator reports it.
func shardSamples(s int) (a, b []netsim.SampleEntry) {
	coords := shardCoordinators(s)
	return coords[0].Sample(), coords[1].Sample()
}

func shardCoordinators(s int) [2]*core.InfiniteCoordinator {
	hasher := hashing.NewMurmur2(7)
	router := NewShardRouter(2, hasher)
	coords := [2]*core.InfiniteCoordinator{core.NewInfiniteCoordinator(s), core.NewInfiniteCoordinator(s)}
	for i := range 8 * s {
		key := fmt.Sprintf("user%d@corp.example.com", i)
		coords[router.Shard(key)].Offer(core.Offer{Key: key, Hash: hasher.Unit(key)})
	}
	return coords
}

var sinkMerge []netsim.SampleEntry

// BenchmarkMerge merges two shards' samples as a read does.
func BenchmarkMerge(b *testing.B) {
	for _, s := range []int{64, 4096} {
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			x, y := shardSamples(s)
			b.ReportAllocs()
			for b.Loop() {
				sinkMerge = Merge(s, x, y)
			}
		})
	}
}

// countingProxy forwards TCP connections to backend and counts the ones it
// accepts. Closing it stops the listener and cuts every forwarded
// connection, so its address refuses new connections like a dead member's.
type countingProxy struct {
	ln       net.Listener
	accepted atomic.Int64
	wg       sync.WaitGroup
	mu       sync.Mutex
	conns    []net.Conn
	closed   bool
}

func newCountingProxy(t *testing.T, backend string) *countingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &countingProxy{ln: ln}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			p.accepted.Add(1)
			server, err := net.Dial("tcp", backend)
			if err != nil {
				client.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, client, server)
			closed := p.closed
			p.mu.Unlock()
			if closed {
				client.Close()
				server.Close()
			}
			p.wg.Add(2)
			go p.pipe(client, server)
			go p.pipe(server, client)
		}
	}()
	t.Cleanup(p.close)
	return p
}

func (p *countingProxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	_, _ = io.Copy(dst, src)
	dst.Close()
	src.Close()
}

func (p *countingProxy) addr() string { return p.ln.Addr().String() }

// take returns the connections accepted since the last take.
func (p *countingProxy) take() int64 { return p.accepted.Swap(0) }

func (p *countingProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	p.closed = true
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// groupMember is one bare coordinator server of a replica group, reached
// through a counting proxy.
type groupMember struct {
	srv   *wire.CoordinatorServer
	addr  string // the server's own address
	proxy *countingProxy
}

func newGroupMember(t *testing.T, node netsim.CoordinatorNode) *groupMember {
	t.Helper()
	srv := wire.NewCoordinatorServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return &groupMember{srv: srv, addr: addr, proxy: newCountingProxy(t, addr)}
}

func (m *groupMember) down() {
	m.proxy.close()
	_ = m.srv.Close()
}

// TestReadOnProbeConnection pins the primary-resolution walk's connection
// use on one group of two bare coordinators, A and B, holding different
// samples: a healthy read probes A and reads on that same connection; a read
// redirected by A's epoch reads B on a second connection; with B down it
// falls back to A's probe connection without dialing A again.
func TestReadOnProbeConnection(t *testing.T) {
	const s = 4
	infinite := func(keys ...string) *core.InfiniteCoordinator {
		c := core.NewInfiniteCoordinator(s)
		for i, k := range keys {
			c.Offer(core.Offer{Key: k, Hash: 0.1 * float64(i+1)})
		}
		return c
	}
	a := newGroupMember(t, infinite("a1", "a2"))
	b := newGroupMember(t, infinite("b1", "b2", "b3"))
	groups := [][]string{{a.proxy.addr(), b.proxy.addr()}}

	read := func(t *testing.T, wantKeys []string, wantA, wantB int64) {
		t.Helper()
		got, err := QueryGroups(groups, s, wire.CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(got))
		for i, e := range got {
			keys[i] = e.Key
		}
		if !slices.Equal(keys, wantKeys) {
			t.Fatalf("sample %v, want %v", keys, wantKeys)
		}
		if gotA := a.proxy.take(); gotA != wantA {
			t.Errorf("A accepted %d connections, want %d", gotA, wantA)
		}
		if gotB := b.proxy.take(); gotB != wantB {
			t.Errorf("B accepted %d connections, want %d", gotB, wantB)
		}
	}

	t.Run("healthy", func(t *testing.T) {
		read(t, []string{"a1", "a2"}, 1, 0)
	})
	t.Run("redirected", func(t *testing.T) {
		if _, err := wire.PromoteAddr(a.addr, 1, wire.CodecBinary); err != nil {
			t.Fatal(err)
		}
		read(t, []string{"b1", "b2", "b3"}, 1, 1)
	})
	t.Run("redirected B down", func(t *testing.T) {
		b.down()
		read(t, []string{"a1", "a2"}, 1, 0)
	})
	t.Run("all down", func(t *testing.T) {
		a.down()
		if got, err := QueryGroups(groups, s, wire.CodecBinary); err == nil {
			t.Fatalf("read of a dead group = %v, want an error", got)
		}
	})
}

// TestWindowReadOnProbeConnection is TestReadOnProbeConnection's healthy
// row for sliding-window coordinators, whose reads fetch the full state.
func TestWindowReadOnProbeConnection(t *testing.T) {
	window := func(key string, hash float64) *sliding.Coordinator {
		c := sliding.NewCoordinator()
		c.Offer(core.Offer{Key: key, Hash: hash, Slot: 10, Expiry: 20})
		return c
	}
	a := newGroupMember(t, window("a", 0.5))
	b := newGroupMember(t, window("b", 0.1))
	got, err := QueryWindowGroups([][]string{{a.proxy.addr(), b.proxy.addr()}}, 12, wire.CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key != "a" {
		t.Fatalf("window sample %v, want A's entry", got)
	}
	if gotA, gotB := a.proxy.take(), b.proxy.take(); gotA != 1 || gotB != 0 {
		t.Fatalf("A accepted %d connections and B %d, want 1 and 0", gotA, gotB)
	}
}

// BenchmarkQueryGroups reads two one-member shards over loopback.
func BenchmarkQueryGroups(b *testing.B) {
	for _, s := range []int{64, 4096} {
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			var groups [][]string
			for _, c := range shardCoordinators(s) {
				srv := wire.NewCoordinatorServer(c)
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				groups = append(groups, []string{addr})
			}
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if sinkMerge, err = QueryGroups(groups, s, wire.CodecBinary); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
