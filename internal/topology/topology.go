// Package topology models the hierarchical interconnects of the HPC
// platforms the paper evaluates on: the Frontier supercomputer (AMD MI250X
// GCDs, Infinity Fabric intra-node, Slingshot Dragonfly inter-node) and a
// DGX-style NVIDIA A100 node for the cross-platform experiment (Table 5).
//
// The central abstraction is the Machine: a description of how global
// ranks map onto GPUs, nodes and racks, and what latency/bandwidth each
// class of link provides. The network simulator (internal/netsim) consumes
// these link parameters to cost collectives; the placement planner
// (internal/parallel) consumes the hierarchy to decide expert and replica
// placement (EP-first vs DP-first, Appendix C.1).
package topology

import "fmt"

// LinkClass identifies the bandwidth tier a point-to-point transfer
// traverses. Classes are ordered from fastest to slowest.
type LinkClass int

const (
	// LinkLocal is a transfer from a rank to itself (an HBM copy).
	LinkLocal LinkClass = iota
	// LinkGCDPair connects the two GCDs on one MI250X package
	// (Infinity Fabric, 200 GB/s on Frontier) or an NVLink pair.
	LinkGCDPair
	// LinkIntraNode connects GPUs in the same node that are not a
	// GCD pair (Infinity Fabric, 50-100 GB/s on Frontier).
	LinkIntraNode
	// LinkInterNode connects nodes in the same rack/group over the
	// Slingshot fabric (25 GB/s per NIC on Frontier).
	LinkInterNode
	// LinkCrossRack connects nodes in different racks through Dragonfly
	// global links, which are subject to congestion from other jobs.
	LinkCrossRack
)

// String returns a short human-readable name for the link class.
func (c LinkClass) String() string {
	switch c {
	case LinkLocal:
		return "local"
	case LinkGCDPair:
		return "gcd-pair"
	case LinkIntraNode:
		return "intra-node"
	case LinkInterNode:
		return "inter-node"
	case LinkCrossRack:
		return "cross-rack"
	default:
		return fmt.Sprintf("LinkClass(%d)", int(c))
	}
}

// DeviceProfile describes the compute device attached to each rank.
type DeviceProfile struct {
	// Name identifies the device, e.g. "MI250X-GCD" or "A100-40GB".
	Name string
	// PeakFLOPs is the peak half-precision throughput in FLOP/s of one
	// effective GPU (one GCD on Frontier: 191.5e12).
	PeakFLOPs float64
	// MemBytes is the HBM capacity in bytes (64 GiB per GCD, 40 GiB A100).
	MemBytes int64
	// HBMBandwidth is the device memory bandwidth in bytes/s, which
	// bounds the bandwidth-bound gather/scatter kernels.
	HBMBandwidth float64
}

// LinkSpec gives the α–β parameters of one link class.
type LinkSpec struct {
	// Latency is the per-message startup cost α in seconds.
	Latency float64
	// Bandwidth is the sustained point-to-point bandwidth β in bytes/s.
	Bandwidth float64
}

// Machine describes a cluster: the per-node GPU layout, the rack size, and
// the link table. Ranks are dense global GPU indices laid out node-major:
// rank r lives on node r/GPUsPerNode at local index r%GPUsPerNode.
type Machine struct {
	// Name identifies the platform (e.g. "frontier").
	Name string
	// GPUsPerNode is the number of effective GPUs per node (8 GCDs on
	// Frontier, 8 A100s in a DGX box).
	GPUsPerNode int
	// GPUsPerPair is the number of GPUs sharing the fastest intra-node
	// tier (2 GCDs per MI250X). Set to GPUsPerNode if there is a single
	// flat intra-node tier (NVSwitch).
	GPUsPerPair int
	// NodesPerRack is the number of nodes in a rack / Dragonfly group
	// (32 on Frontier: "a single rack contains up to 256 GPUs").
	NodesPerRack int
	// NodeNICBandwidth is the total injection bandwidth of one node into
	// the inter-node fabric, in bytes/s (4 x 25 GB/s on Frontier). All
	// GPUs on a node share it.
	NodeNICBandwidth float64
	// Links maps each link class to its α–β parameters.
	Links map[LinkClass]LinkSpec
	// Device is the compute profile of each rank's GPU.
	Device DeviceProfile
}

const gb = 1e9

// Frontier returns the Frontier machine model used throughout the paper's
// evaluation (§5.1): 8 GCDs per node, 200 GB/s GCD pairs, ~75 GB/s other
// intra-node links, 4x25 GB/s Slingshot NICs, 256-GPU racks.
func Frontier() *Machine {
	return &Machine{
		Name:             "frontier",
		GPUsPerNode:      8,
		GPUsPerPair:      2,
		NodesPerRack:     32,
		NodeNICBandwidth: 100 * gb, // 4 NICs x 25 GB/s
		Links: map[LinkClass]LinkSpec{
			LinkLocal:     {Latency: 0, Bandwidth: 1300 * gb},
			LinkGCDPair:   {Latency: 1.5e-6, Bandwidth: 200 * gb},
			LinkIntraNode: {Latency: 2e-6, Bandwidth: 75 * gb},
			LinkInterNode: {Latency: 4e-6, Bandwidth: 25 * gb},
			LinkCrossRack: {Latency: 8e-6, Bandwidth: 25 * gb},
		},
		Device: DeviceProfile{
			Name:         "MI250X-GCD",
			PeakFLOPs:    191.5e12,
			MemBytes:     64e9, // 64 GB (decimal, as marketed)
			HBMBandwidth: 1600 * gb,
		},
	}
}

// DGXA100 returns an 8-GPU DGX A100 40GB node model for the
// cross-platform experiment (Table 5): flat NVSwitch intra-node fabric.
func DGXA100() *Machine {
	return &Machine{
		Name:             "dgx-a100",
		GPUsPerNode:      8,
		GPUsPerPair:      8, // NVSwitch: one flat tier
		NodesPerRack:     1,
		NodeNICBandwidth: 200 * gb, // 8 x 200 Gb/s HDR IB
		Links: map[LinkClass]LinkSpec{
			LinkLocal:     {Latency: 0, Bandwidth: 1400 * gb},
			LinkGCDPair:   {Latency: 1.2e-6, Bandwidth: 300 * gb}, // NVLink3 per-pair
			LinkIntraNode: {Latency: 1.2e-6, Bandwidth: 300 * gb},
			LinkInterNode: {Latency: 4e-6, Bandwidth: 25 * gb},
			LinkCrossRack: {Latency: 8e-6, Bandwidth: 25 * gb},
		},
		Device: DeviceProfile{
			Name:         "A100-40GB",
			PeakFLOPs:    312e12,
			MemBytes:     40e9, // 40 GB (decimal, as marketed)
			HBMBandwidth: 1555 * gb,
		},
	}
}

// NodeOf returns the node index hosting global rank r.
func (m *Machine) NodeOf(r int) int { return r / m.GPUsPerNode }

// LocalRank returns r's index within its node.
func (m *Machine) LocalRank(r int) int { return r % m.GPUsPerNode }

// RackOf returns the rack (Dragonfly group) index hosting rank r.
func (m *Machine) RackOf(r int) int { return m.NodeOf(r) / m.NodesPerRack }

// SameNode reports whether two ranks share a node.
func (m *Machine) SameNode(a, b int) bool { return m.NodeOf(a) == m.NodeOf(b) }

// Classify returns the link class of a transfer from rank a to rank b.
func (m *Machine) Classify(a, b int) LinkClass {
	if a == b {
		return LinkLocal
	}
	if m.NodeOf(a) == m.NodeOf(b) {
		if m.LocalRank(a)/m.GPUsPerPair == m.LocalRank(b)/m.GPUsPerPair {
			return LinkGCDPair
		}
		return LinkIntraNode
	}
	if m.RackOf(a) == m.RackOf(b) {
		return LinkInterNode
	}
	return LinkCrossRack
}

// Link returns the α–β parameters of the given link class.
func (m *Machine) Link(c LinkClass) LinkSpec { return m.Links[c] }

// NumNodes returns the node count needed to host n ranks.
func (m *Machine) NumNodes(n int) int {
	return (n + m.GPUsPerNode - 1) / m.GPUsPerNode
}

// NumRacks returns the rack count needed to host n ranks.
func (m *Machine) NumRacks(n int) int {
	return (m.NumNodes(n) + m.NodesPerRack - 1) / m.NodesPerRack
}
