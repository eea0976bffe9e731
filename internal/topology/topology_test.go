package topology

import (
	"fmt"
	"testing"
	"testing/quick"
)

// validate checks the machine description for internal consistency.
func (m *Machine) validate() error {
	if m.GPUsPerNode <= 0 || m.GPUsPerPair <= 0 || m.NodesPerRack <= 0 {
		return fmt.Errorf("topology: %s: non-positive layout field", m.Name)
	}
	if m.GPUsPerNode%m.GPUsPerPair != 0 {
		return fmt.Errorf("topology: %s: GPUsPerNode %d not divisible by GPUsPerPair %d",
			m.Name, m.GPUsPerNode, m.GPUsPerPair)
	}
	for _, c := range []LinkClass{LinkLocal, LinkGCDPair, LinkIntraNode, LinkInterNode, LinkCrossRack} {
		spec, ok := m.Links[c]
		if !ok {
			return fmt.Errorf("topology: %s: missing link class %v", m.Name, c)
		}
		if spec.Bandwidth <= 0 || spec.Latency < 0 {
			return fmt.Errorf("topology: %s: invalid spec for %v", m.Name, c)
		}
	}
	if m.Device.PeakFLOPs <= 0 || m.Device.MemBytes <= 0 || m.Device.HBMBandwidth <= 0 {
		return fmt.Errorf("topology: %s: invalid device profile", m.Name)
	}
	return nil
}

func TestFrontierValid(t *testing.T) {
	m := Frontier()
	if err := m.validate(); err != nil {
		t.Fatal(err)
	}
	if m.GPUsPerNode != 8 || m.GPUsPerPair != 2 || m.NodesPerRack != 32 {
		t.Fatalf("unexpected Frontier layout: %+v", m)
	}
	if m.Device.MemBytes != 64e9 {
		t.Fatalf("MI250X GCD memory = %d, want 64 GB", m.Device.MemBytes)
	}
}

func TestDGXA100Valid(t *testing.T) {
	m := DGXA100()
	if err := m.validate(); err != nil {
		t.Fatal(err)
	}
	if m.Device.MemBytes != 40e9 {
		t.Fatalf("A100 memory = %d, want 40 GB", m.Device.MemBytes)
	}
}

func TestNodeRackMapping(t *testing.T) {
	m := Frontier()
	if m.NodeOf(0) != 0 || m.NodeOf(7) != 0 || m.NodeOf(8) != 1 {
		t.Fatal("NodeOf wrong")
	}
	if m.LocalRank(13) != 5 {
		t.Fatalf("LocalRank(13) = %d, want 5", m.LocalRank(13))
	}
	// Rack = 32 nodes = 256 GPUs.
	if m.RackOf(255) != 0 || m.RackOf(256) != 1 {
		t.Fatalf("RackOf(255)=%d RackOf(256)=%d", m.RackOf(255), m.RackOf(256))
	}
	if m.NumNodes(1024) != 128 || m.NumRacks(1024) != 4 {
		t.Fatalf("NumNodes/NumRacks(1024) = %d/%d, want 128/4", m.NumNodes(1024), m.NumRacks(1024))
	}
	if m.NumNodes(9) != 2 {
		t.Fatalf("NumNodes(9) = %d, want 2", m.NumNodes(9))
	}
}

func TestClassify(t *testing.T) {
	m := Frontier()
	cases := []struct {
		a, b int
		want LinkClass
	}{
		{0, 0, LinkLocal},
		{0, 1, LinkGCDPair},     // GCDs 0,1 share an MI250X
		{0, 2, LinkIntraNode},   // same node, different package
		{0, 7, LinkIntraNode},   // same node
		{0, 8, LinkInterNode},   // next node, same rack
		{0, 255, LinkInterNode}, // last GPU of rack 0
		{0, 256, LinkCrossRack}, // first GPU of rack 1
		{300, 301, LinkGCDPair}, // pair structure holds at high ranks
		{300, 1023, LinkCrossRack},
	}
	for _, c := range cases {
		if got := m.Classify(c.a, c.b); got != c.want {
			t.Errorf("Classify(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestClassifySymmetric(t *testing.T) {
	m := Frontier()
	f := func(a, b uint16) bool {
		x, y := int(a)%1024, int(b)%1024
		return m.Classify(x, y) == m.Classify(y, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkOrderingFasterTiersHaveMoreBandwidth(t *testing.T) {
	for _, m := range []*Machine{Frontier(), DGXA100()} {
		order := []LinkClass{LinkLocal, LinkGCDPair, LinkIntraNode, LinkInterNode, LinkCrossRack}
		for i := 1; i < len(order); i++ {
			if m.Link(order[i]).Bandwidth > m.Link(order[i-1]).Bandwidth {
				t.Errorf("%s: %v bandwidth exceeds %v", m.Name, order[i], order[i-1])
			}
		}
	}
}

func TestFrontierBandwidthAsymmetry(t *testing.T) {
	// The paper's Takeaway-3 rests on the 200 vs 25 GB/s asymmetry; the
	// model must preserve an 8x gap between GCD-pair and inter-node links.
	m := Frontier()
	ratio := m.Link(LinkGCDPair).Bandwidth / m.Link(LinkInterNode).Bandwidth
	if ratio < 7.9 || ratio > 8.1 {
		t.Fatalf("intra/inter bandwidth ratio = %.2f, want 8.0", ratio)
	}
}

func TestValidateCatchesBrokenMachines(t *testing.T) {
	m := Frontier()
	m.GPUsPerPair = 3 // 8 % 3 != 0
	if err := m.validate(); err == nil {
		t.Fatal("expected validation error for indivisible pair size")
	}
	m2 := Frontier()
	delete(m2.Links, LinkInterNode)
	if err := m2.validate(); err == nil {
		t.Fatal("expected validation error for missing link class")
	}
	m3 := Frontier()
	m3.Device.PeakFLOPs = 0
	if err := m3.validate(); err == nil {
		t.Fatal("expected validation error for zero peak FLOPs")
	}
}
