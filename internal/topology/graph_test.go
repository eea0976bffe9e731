package topology

import "testing"

func TestFlatMachineValidates(t *testing.T) {
	for _, n := range []int{2, 8, 64} {
		m := Flat(n)
		if err := m.validate(); err != nil {
			t.Fatalf("Flat(%d): %v", n, err)
		}
		if m.NumNodes(n) != 1 {
			t.Fatalf("Flat(%d) spans %d nodes, want 1", n, m.NumNodes(n))
		}
		// Every distinct pair sits on the fastest tier: the single-class
		// regime the cross-validation suite relies on.
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := LinkGCDPair
				if a == b {
					want = LinkLocal
				}
				if got := m.Classify(a, b); got != want {
					t.Fatalf("Flat(%d).Classify(%d,%d) = %v, want %v", n, a, b, got, want)
				}
			}
		}
	}
}

func TestFlatGraphRoutesArePortPairs(t *testing.T) {
	n := 8
	g := FlatGraph(Flat(n), n)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			path := g.Route(s, d, nil)
			if len(path) != 2 || path[0] != LinkID(s) || path[1] != LinkID(n+d) {
				t.Fatalf("route %d→%d = %v, want [eg%d in%d]", s, d, path, s, d)
			}
			for _, id := range path {
				if !g.Link(id).ClassBound || g.Link(id).Shared {
					t.Fatalf("flat link %s must be class-bound and unshared", g.Link(id).Name)
				}
			}
		}
	}
}

func TestFlatGraphRejectsMultiNodeSpan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FlatGraph accepted a 2-node span")
		}
	}()
	FlatGraph(Frontier(), 16)
}

func TestRailGraphSharedTrunks(t *testing.T) {
	m := Frontier()
	n := 64 // 8 nodes, one rack
	g := RailGraph(m, n, 0)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Intra-node transfers never touch a trunk.
	path := g.Route(0, 1, nil)
	if len(path) != 2 {
		t.Fatalf("intra-node route = %v, want port pair", path)
	}
	// Inter-node transfers traverse exactly src NIC up + dst NIC down.
	path = g.Route(0, 63, nil)
	if len(path) != 4 {
		t.Fatalf("inter-node route = %v, want 4 hops", path)
	}
	up, down := g.Link(path[1]), g.Link(path[2])
	if up.Name != "nic0.up" || down.Name != "nic7.down" {
		t.Fatalf("inter-node trunks = %s, %s", up.Name, down.Name)
	}
	for _, l := range []*GraphLink{up, down} {
		if !l.Shared || l.Class != LinkInterNode || l.Bandwidth != m.NodeNICBandwidth {
			t.Fatalf("NIC trunk %s: Shared=%v Class=%v BW=%g", l.Name, l.Shared, l.Class, l.Bandwidth)
		}
	}
	// Single-rack spans build no spine links.
	for _, l := range g.Links {
		if l.Class == LinkCrossRack {
			t.Fatalf("single-rack rail graph has spine link %s", l.Name)
		}
	}
}

func TestRailGraphSpineOversubscription(t *testing.T) {
	m := Frontier()
	n := 2 * m.NodesPerRack * m.GPUsPerNode // two full racks
	g := RailGraph(m, n, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	path := g.Route(0, n-1, nil)
	if len(path) != 6 {
		t.Fatalf("cross-rack route = %v, want 6 hops", path)
	}
	spine := g.Link(path[2])
	wantBW := float64(m.NodesPerRack) * m.NodeNICBandwidth / 4
	if spine.Class != LinkCrossRack || !spine.Shared || spine.Bandwidth != wantBW {
		t.Fatalf("spine %s: Class=%v Shared=%v BW=%g want %g",
			spine.Name, spine.Class, spine.Shared, spine.Bandwidth, wantBW)
	}
}

func TestNoCGraphCrossbarSplicing(t *testing.T) {
	m := Frontier()
	n := 16 // two nodes
	g := NoCGraph(m, n, 0)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Intra-pair: port pair only, crossbar bypassed.
	if path := g.Route(0, 1, nil); len(path) != 2 {
		t.Fatalf("intra-pair route = %v, want port pair", path)
	}
	// Cross-pair same node: eg, xbar up, xbar down, in.
	path := g.Route(0, 7, nil)
	if len(path) != 4 || g.Link(path[1]).Name != "xbar0.up" || g.Link(path[2]).Name != "xbar3.down" {
		t.Fatalf("cross-pair route = %v (%s, %s)", path, g.Link(path[1]).Name, g.Link(path[2]).Name)
	}
	// Inter-node: crossbars bracket the NIC trunks.
	path = g.Route(0, 15, nil)
	if len(path) != 6 {
		t.Fatalf("inter-node route = %v, want 6 hops", path)
	}
	names := make([]string, len(path))
	for i, id := range path {
		names[i] = g.Link(id).Name
	}
	want := []string{"eg0", "xbar0.up", "nic0.up", "nic1.down", "xbar7.down", "in15"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("inter-node route = %v, want %v", names, want)
		}
	}
	// Crossbar bandwidth aggregates the pair's intra-node links.
	xb := g.Link(path[1])
	if wantBW := m.Link(LinkIntraNode).Bandwidth * float64(m.GPUsPerPair); xb.Bandwidth != wantBW {
		t.Fatalf("crossbar BW = %g, want %g", xb.Bandwidth, wantBW)
	}
}
