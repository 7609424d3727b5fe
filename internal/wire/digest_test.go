package wire

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
)

// entryProbe is a site node that records which entry point each arrival
// took and sends nothing.
type entryProbe struct {
	digests  []uint64 // d of every OnDigest call
	arrivals int      // OnArrival calls
}

func (p *entryProbe) ID() int                                         { return 0 }
func (p *entryProbe) OnArrival(string, int64, *netsim.Outbox)         { p.arrivals++ }
func (p *entryProbe) OnMessage(netsim.Message, int64, *netsim.Outbox) {}
func (p *entryProbe) OnSlotEnd(int64, *netsim.Outbox)                 {}
func (p *entryProbe) Memory() int                                     { return 0 }
func (p *entryProbe) Hasher() hashing.UnitHasher                      { return nil }
func (p *entryProbe) OnDigest(_ string, d uint64, _ int64, _ *netsim.Outbox) {
	p.digests = append(p.digests, d)
}

// TestObserveDigestEntryPoint: ObserveDigest hands the digest to a node's
// digest entry point and Observe never does, on every transport; a node
// seen only as a netsim.SiteNode takes OnArrival under both.
func TestObserveDigestEntryPoint(t *testing.T) {
	_, addr := startServer(t, core.NewInfiniteCoordinator(4))
	for _, opts := range []Options{
		{},
		{Codec: CodecBinary, BatchSize: 8},
		{Codec: CodecBinary, BatchSize: 8, Window: 2},
	} {
		t.Run(fmt.Sprintf("%s-batch%d-window%d", opts.Codec, opts.BatchSize, opts.Window), func(t *testing.T) {
			direct, hidden := &entryProbe{}, &entryProbe{}
			for _, node := range []netsim.SiteNode{direct, struct{ netsim.SiteNode }{hidden}} {
				client, err := DialSiteOptions(node, addr, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := client.ObserveDigest("a", 7, 0); err != nil {
					t.Fatal(err)
				}
				if err := client.Observe("b", 0); err != nil {
					t.Fatal(err)
				}
				if err := client.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if len(direct.digests) != 1 || direct.digests[0] != 7 || direct.arrivals != 1 {
				t.Errorf("digest node: OnDigest got %v, OnArrival ran %d times; want [7] and 1", direct.digests, direct.arrivals)
			}
			if len(hidden.digests) != 0 || hidden.arrivals != 2 {
				t.Errorf("site-only node: OnDigest got %v, OnArrival ran %d times; want none and 2", hidden.digests, hidden.arrivals)
			}
		})
	}
}
