// Package netsim is a link-level analytic network simulator for the
// hierarchical interconnects described by internal/topology. It converts
// collective communication patterns (all-to-all-v, all-reduce, all-gather,
// reduce-scatter, broadcast) into wall-clock time estimates using an α–β
// model per link class, per-node NIC aggregation, and a Dragonfly
// cross-rack congestion model (paper Appendix D).
//
// The simulator is deliberately analytic rather than packet-level: the
// paper's communication effects — the 8x intra/inter-node bandwidth
// asymmetry that motivates RBD, padded vs padding-free volume, and
// cross-rack congestion outliers past 256 GPUs — are all bandwidth- and
// topology-level phenomena, faithfully captured at this granularity.
package netsim

import (
	"math"
	"sync"

	"xmoe/internal/topology"
)

// Cost reports the outcome of simulating one collective operation.
type Cost struct {
	// Seconds is the modeled wall-clock duration of the collective.
	Seconds float64
	// BytesByClass is the aggregate traffic per link class: the bytes
	// moved over links of each class summed across every participant of
	// the collective (not per-rank, not per-link). Under this convention
	// a ring all-reduce of R bytes among p ranks accounts 2(p-1)R bytes
	// in total, an all-gather of sum(perRankBytes)=T accounts (p-1)T, and
	// an all-to-all accounts exactly the sum of its pairwise payloads.
	// Every collective in this package follows the same convention, so
	// byte totals are comparable across collectives. The hierarchical
	// collectives (all-reduce, all-gather, reduce-scatter) aggregate with
	// an even-layout model — the ring identities above are exact when
	// every occupied node holds the same number of members, and integer
	// division makes them approximate (never more than one member's
	// volume off) for uneven layouts.
	BytesByClass map[topology.LinkClass]int64
	// CongestionDelay is the portion of Seconds attributable to sampled
	// cross-rack congestion (zero when the group fits in one rack).
	CongestionDelay float64
}

// TotalBytes returns the sum of traffic over all non-local link classes.
func (c Cost) TotalBytes() int64 {
	var t int64
	for class, b := range c.BytesByClass {
		if class != topology.LinkLocal {
			t += b
		}
	}
	return t
}

// InterNodeBytes returns traffic crossing node boundaries (inter-node plus
// cross-rack links) — the quantity RBD minimises.
func (c Cost) InterNodeBytes() int64 {
	return c.BytesByClass[topology.LinkInterNode] + c.BytesByClass[topology.LinkCrossRack]
}

// The Dragonfly congestion model of Appendix D, calibrated against its
// characterisation (Figs. 18-19): all-to-alls are stable up to one rack
// and develop heavy-tailed outliers beyond it, as cross-rack traffic
// contends with other jobs on shared global links.
const (
	// outlierProb2Racks and outlierProb4Racks are the per-collective
	// probability of hitting a congested global link when the group
	// spans 2 and >= 4 racks (3 racks takes their mean).
	outlierProb2Racks float64 = 0.04
	outlierProb4Racks float64 = 0.12
	// outlierMinDelay and outlierMaxDelay bound the uniform outlier delay
	// in seconds (paper: frequent > 500 ms per-collective times at
	// 512/1024 GPUs).
	outlierMinDelay float64 = 0.1
	outlierMaxDelay float64 = 0.9
	// baseCrossRackSlowdown divides effective cross-rack bandwidth even
	// when no outlier fires (steady-state sharing of global links).
	baseCrossRackSlowdown float64 = 1.6
)

// Network simulates collectives over a machine, with the congestion model
// above. It is safe for concurrent use by multiple goroutines (the
// simulated ranks).
type Network struct {
	M *topology.Machine
	// DisableCongestion turns off stochastic outliers (used by
	// correctness tests that need deterministic times).
	DisableCongestion bool
	// ExpectedCongestion replaces outlier sampling by its expectation
	// (probability x mean delay), giving deterministic amortised costs.
	// The throughput simulator uses this because it simulates one layer
	// and scales by depth; the Appendix-D characterisation keeps
	// sampling to reproduce the outlier scatter.
	ExpectedCongestion bool
	// JobRanks, when positive, is the total rank count of the running
	// job. Appendix D observes that once a job spans more than one rack,
	// even sub-rack communicators hit congested Dragonfly global links
	// (allocations are fragmented and the fabric is shared with other
	// jobs), so congestion scope is the job, not the communicator.
	JobRanks int
	// linkDerate scales down the effective bandwidth of a link class by
	// the given factor (2 halves it); classes absent or <= 1 are healthy.
	// This is the degraded-link fault class: a flaky NIC or oversubscribed
	// global link slows traffic without killing any rank. Latencies and
	// byte accounting are unaffected — only time stretches. SetLinkDerate
	// sets it, only while no collectives are in flight (between
	// Cluster.Run calls); the cost memo folds the derates into its keys,
	// so changing them never serves stale cached times.
	linkDerate map[topology.LinkClass]float64

	mu       sync.Mutex
	rngState uint64

	cacheOnce sync.Once
	cache     *costCache
}

// costCache memoizes collective costs when the simulator is deterministic
// (congestion disabled or taken in expectation). The symbolic 1024-GPU
// sweeps evaluate identical all-to-all patterns once per layer per
// micro-step; each AlltoAllV is O(p²) link classifications, so the
// sweep-dominating work collapses to a hash lookup. Cached Cost values
// are shared: callers must treat BytesByClass as immutable (all in-repo
// callers only read it).
//
// Caches live in a per-machine-configuration registry rather than on the
// Network: configuration sweeps build a fresh Network per simulated
// cluster (and figures often build a fresh Machine with identical
// parameters), so keying on the machine's structural identity keeps the
// cache warm across an entire sweep and across equal machines, while
// bounding the registry to the handful of distinct platforms. All
// Network state that affects a cost (congestion flags, link derates,
// JobRanks) is folded into the per-entry hash key.
type costCache struct {
	mu sync.Mutex
	m  map[uint64]Cost
}

// machineKey is the comparable structural identity of a topology.Machine
// as seen by the cost model: every field the simulator reads.
type machineKey struct {
	name               string
	gpusPerNode        int
	gpusPerPair        int
	nodesPerRack       int
	nodeNICBandwidth   float64
	local, pair        topology.LinkSpec
	intra, inter, rack topology.LinkSpec
}

func keyOf(m *topology.Machine) machineKey {
	return machineKey{
		name:             m.Name,
		gpusPerNode:      m.GPUsPerNode,
		gpusPerPair:      m.GPUsPerPair,
		nodesPerRack:     m.NodesPerRack,
		nodeNICBandwidth: m.NodeNICBandwidth,
		local:            m.Links[topology.LinkLocal],
		pair:             m.Links[topology.LinkGCDPair],
		intra:            m.Links[topology.LinkIntraNode],
		inter:            m.Links[topology.LinkInterNode],
		rack:             m.Links[topology.LinkCrossRack],
	}
}

var netCaches sync.Map // machineKey -> *costCache

// cacheFor resolves this network's shared cost cache once and pins it,
// so the per-collective fast path is a single pointer read.
func (n *Network) cacheFor() *costCache {
	n.cacheOnce.Do(func() {
		key := keyOf(n.M)
		if c, ok := netCaches.Load(key); ok {
			n.cache = c.(*costCache)
			return
		}
		c, _ := netCaches.LoadOrStore(key, &costCache{m: map[uint64]Cost{}})
		n.cache = c.(*costCache)
	})
	return n.cache
}

// collective kind tags folded into cache keys.
const (
	kindAlltoAllV uint64 = iota + 1
	kindAllReduce
	kindAllGather
	kindBroadcast
	kindBarrier
)

// cacheBound caps the memo size; pathological workloads that never repeat
// a pattern reset the map instead of growing without bound.
const cacheBound = 1 << 16

// deterministic reports whether collective costs are reproducible (and so
// cacheable): stochastic congestion sampling is off or replaced by its
// expectation.
func (n *Network) deterministic() bool {
	return n.DisableCongestion || n.ExpectedCongestion
}

// mix folds v into the FNV-style hash h.
func mix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

// derateOf returns the bandwidth derate factor for a link class (1 when
// healthy).
func (n *Network) derateOf(class topology.LinkClass) float64 {
	if d, ok := n.linkDerate[class]; ok && d > 1 {
		return d
	}
	return 1
}

// bandwidthOf returns the effective bandwidth of a link class after any
// degraded-link derate.
func (n *Network) bandwidthOf(class topology.LinkClass) float64 {
	return n.M.Link(class).Bandwidth / n.derateOf(class)
}

// hashRanks seeds a collective cache key from the kind tag and the member
// ranks. JobRanks participates because it widens the congestion scope.
func (n *Network) hashRanks(kind uint64, ranks []int) uint64 {
	h := uint64(14695981039346656037)
	h = mix(h, kind)
	h = mix(h, uint64(n.JobRanks))
	var flags uint64
	if n.DisableCongestion {
		flags |= 1
	}
	if n.ExpectedCongestion {
		flags |= 2
	}
	h = mix(h, flags)
	for class := topology.LinkLocal; class <= topology.LinkCrossRack; class++ {
		h = mix(h, math.Float64bits(n.derateOf(class)))
	}
	h = mix(h, uint64(len(ranks)))
	for _, r := range ranks {
		h = mix(h, uint64(r))
	}
	return h
}

// cached returns the memoized cost for key, or computes, stores, and
// returns it. Concurrent misses on the same key recompute the same
// deterministic value; last store wins.
func (n *Network) cached(key uint64, compute func() Cost) Cost {
	cc := n.cacheFor()
	cc.mu.Lock()
	c, ok := cc.m[key]
	cc.mu.Unlock()
	if ok {
		return c
	}
	c = compute()
	cc.mu.Lock()
	if len(cc.m) >= cacheBound {
		cc.m = make(map[uint64]Cost, 256)
	}
	cc.m[key] = c
	cc.mu.Unlock()
	return c
}

// New returns a network simulator over machine m whose congestion sampler
// is seeded deterministically by seed.
func New(m *topology.Machine, seed uint64) *Network {
	return &Network{M: m, rngState: seed}
}

// rand returns a uniform float64 in [0,1) from the network's internal
// deterministic generator.
func (n *Network) rand() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rngState += 0x9e3779b97f4a7c15
	z := n.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// racksSpanned counts the racks whose congestion the collective is
// exposed to: the communicator's own span, widened to the job's rack span
// when the collective leaves node boundaries (fragmented allocations and
// shared global links, Appendix D).
func (n *Network) racksSpanned(ranks []int) int {
	seen := map[int]bool{}
	nodes := map[int]bool{}
	for _, r := range ranks {
		seen[n.M.RackOf(r)] = true
		nodes[n.M.NodeOf(r)] = true
	}
	racks := len(seen)
	if n.JobRanks > 0 && len(nodes) > 1 {
		if jr := n.M.NumRacks(n.JobRanks); jr > racks {
			racks = jr
		}
	}
	return racks
}

// congestionDelay samples the additional delay for a collective exposed
// to the given rack span whose fabric-visible (inter-node or cross-rack)
// traffic is fabricBytes.
func (n *Network) congestionDelay(racks int, fabricBytes int64) float64 {
	if n.DisableCongestion || racks <= 1 || fabricBytes == 0 {
		return 0
	}
	p := outlierProb2Racks
	if racks >= 4 {
		p = outlierProb4Racks
	} else if racks == 3 {
		p = (outlierProb2Racks + outlierProb4Racks) / 2
	}
	if n.ExpectedCongestion {
		return p * (outlierMinDelay + outlierMaxDelay) / 2
	}
	if n.rand() >= p {
		return 0
	}
	return outlierMinDelay + n.rand()*(outlierMaxDelay-outlierMinDelay)
}

// AlltoAllV simulates an uneven all-to-all among ranks, where
// sendBytes[i][j] is the payload rank ranks[i] sends to ranks[j]. It
// models each GPU's egress/ingress serialisation per destination link
// class, aggregates node egress/ingress through the shared NIC bandwidth,
// and takes the bottleneck. Startup costs α are charged per destination
// message.
func (n *Network) AlltoAllV(ranks []int, sendBytes [][]int64) Cost {
	if n.deterministic() {
		key := n.hashRanks(kindAlltoAllV, ranks)
		for _, row := range sendBytes {
			for _, b := range row {
				key = mix(key, uint64(b))
			}
		}
		return n.cached(key, func() Cost { return n.alltoAllV(ranks, sendBytes) })
	}
	return n.alltoAllV(ranks, sendBytes)
}

func (n *Network) alltoAllV(ranks []int, sendBytes [][]int64) Cost {
	m := n.M
	p := len(ranks)
	byClass := map[topology.LinkClass]int64{}

	gpuTime := make([]float64, p)  // per-rank max(egress, ingress) serialisation
	ingress := make([]float64, p)  // per-rank ingress accumulation
	nodeEgress := map[int]int64{}  // node -> bytes leaving node
	nodeIngress := map[int]int64{} // node -> bytes entering node
	crossBytes := int64(0)

	for i := 0; i < p; i++ {
		src := ranks[i]
		var egressTime float64
		for j := 0; j < p; j++ {
			b := sendBytes[i][j]
			if b == 0 {
				continue
			}
			dst := ranks[j]
			class := m.Classify(src, dst)
			byClass[class] += b
			spec := m.Link(class)
			bw := n.bandwidthOf(class)
			if class == topology.LinkCrossRack && !n.DisableCongestion {
				bw /= baseCrossRackSlowdown
			}
			t := spec.Latency + float64(b)/bw
			egressTime += t
			ingress[j] += t
			if class == topology.LinkInterNode || class == topology.LinkCrossRack {
				nodeEgress[m.NodeOf(src)] += b
				nodeIngress[m.NodeOf(dst)] += b
			}
			if class == topology.LinkCrossRack {
				crossBytes += b
			}
		}
		gpuTime[i] = egressTime
	}

	var maxTime float64
	for i := 0; i < p; i++ {
		if gpuTime[i] > maxTime {
			maxTime = gpuTime[i]
		}
		if ingress[i] > maxTime {
			maxTime = ingress[i]
		}
	}
	nic := m.NodeNICBandwidth
	for _, b := range nodeEgress {
		if t := float64(b) / nic; t > maxTime {
			maxTime = t
		}
	}
	for _, b := range nodeIngress {
		if t := float64(b) / nic; t > maxTime {
			maxTime = t
		}
	}

	fabric := crossBytes + byClass[topology.LinkInterNode]
	cd := n.congestionDelay(n.racksSpanned(ranks), fabric)
	return Cost{Seconds: maxTime + cd, BytesByClass: byClass, CongestionDelay: cd}
}

// AlltoAll simulates an even all-to-all where every rank sends bytesPerPair
// to every other rank (the padded GShard/DeepSpeed-MoE exchange).
func (n *Network) AlltoAll(ranks []int, bytesPerPair int64) Cost {
	p := len(ranks)
	send := make([][]int64, p)
	for i := range send {
		send[i] = make([]int64, p)
		for j := range send[i] {
			if i != j {
				send[i][j] = bytesPerPair
			}
		}
	}
	return n.AlltoAllV(ranks, send)
}

// groupLayout describes how a communicator maps onto the machine
// hierarchy: members per node and the node/rack span.
type groupLayout struct {
	membersPerNode int // max members co-located on one node
	nodes          int
	racks          int
	intraClass     topology.LinkClass
}

func (n *Network) layout(ranks []int) groupLayout {
	perNode := map[int]int{}
	racks := map[int]bool{}
	intra := topology.LinkGCDPair
	for _, r := range ranks {
		perNode[n.M.NodeOf(r)]++
		racks[n.M.RackOf(r)] = true
	}
	maxPer := 0
	for _, c := range perNode {
		if c > maxPer {
			maxPer = c
		}
	}
	// If any same-node pair is not a GCD pair, the intra tier is the
	// slower intra-node link.
	for i := 0; i < len(ranks) && intra == topology.LinkGCDPair; i++ {
		for j := i + 1; j < len(ranks); j++ {
			if n.M.SameNode(ranks[i], ranks[j]) &&
				n.M.Classify(ranks[i], ranks[j]) == topology.LinkIntraNode {
				intra = topology.LinkIntraNode
				break
			}
		}
	}
	return groupLayout{membersPerNode: maxPer, nodes: len(perNode), racks: len(racks), intraClass: intra}
}

// AllReduce simulates a hierarchical ring all-reduce of bytes per rank:
// intra-node reduce-scatter, inter-node ring all-reduce on the sharded
// data (through the shared node NIC), then intra-node all-gather.
func (n *Network) AllReduce(ranks []int, bytes int64) Cost {
	if n.deterministic() {
		key := mix(n.hashRanks(kindAllReduce, ranks), uint64(bytes))
		return n.cached(key, func() Cost { return n.allReduce(ranks, bytes) })
	}
	return n.allReduce(ranks, bytes)
}

func (n *Network) allReduce(ranks []int, bytes int64) Cost {
	p := len(ranks)
	if p <= 1 || bytes == 0 {
		return Cost{BytesByClass: map[topology.LinkClass]int64{}}
	}
	l := n.layout(ranks)
	intra := n.M.Link(l.intraClass)
	byClass := map[topology.LinkClass]int64{}
	var t float64

	g := l.membersPerNode
	if g > 1 {
		// Intra-node reduce-scatter + all-gather: 2 x (g-1)/g x bytes per
		// member. Every rank of the group runs the intra phase, so the
		// aggregate is the per-member volume times p (integer arithmetic,
		// so the cross-collective ring identities hold exactly on even
		// node layouts; see the Cost.BytesByClass convention note).
		vol := 2 * float64(g-1) / float64(g) * float64(bytes)
		t += vol/n.bandwidthOf(l.intraClass) + 2*float64(g-1)*intra.Latency
		byClass[l.intraClass] += 2 * int64(g-1) * bytes * int64(p) / int64(g)
	}
	if l.nodes > 1 {
		// Inter-node ring all-reduce on bytes/g shards; the g flows per
		// node share the NIC, so per-node throughput is the NIC rate.
		nodes := l.nodes
		shard := float64(bytes) / float64(max(g, 1))
		vol := 2 * float64(nodes-1) / float64(nodes) * shard * float64(g)
		interSpec := n.M.Link(topology.LinkInterNode)
		interClass := topology.LinkInterNode
		if l.racks > 1 {
			interClass = topology.LinkCrossRack
		}
		bw := math.Min(n.M.NodeNICBandwidth, interSpec.Bandwidth*float64(g)) / n.derateOf(interClass)
		t += vol/bw + 2*float64(nodes-1)*interSpec.Latency
		class := topology.LinkInterNode
		if l.racks > 1 {
			class = topology.LinkCrossRack
		}
		byClass[class] += 2 * int64(nodes-1) * bytes
	}
	cd := n.congestionDelay(l.racks, byClass[topology.LinkCrossRack]+byClass[topology.LinkInterNode])
	return Cost{Seconds: t + cd, BytesByClass: byClass, CongestionDelay: cd}
}

// AllGather simulates gathering perRankBytes[i] from each rank to all
// ranks (ring schedule, hierarchical bandwidth).
func (n *Network) AllGather(ranks []int, perRankBytes []int64) Cost {
	if n.deterministic() {
		key := n.hashRanks(kindAllGather, ranks)
		for _, b := range perRankBytes {
			key = mix(key, uint64(b))
		}
		return n.cached(key, func() Cost { return n.allGather(ranks, perRankBytes) })
	}
	return n.allGather(ranks, perRankBytes)
}

func (n *Network) allGather(ranks []int, perRankBytes []int64) Cost {
	p := len(ranks)
	if p <= 1 {
		return Cost{BytesByClass: map[topology.LinkClass]int64{}}
	}
	var total int64
	for _, b := range perRankBytes {
		total += b
	}
	l := n.layout(ranks)
	byClass := map[topology.LinkClass]int64{}
	var t float64
	g := l.membersPerNode
	intra := n.M.Link(l.intraClass)
	if g > 1 {
		// Per-member intra volume, aggregated over all p participants
		// (same integer-exact convention as allReduce).
		vol := float64(g-1) / float64(g) * float64(total)
		t += vol/n.bandwidthOf(l.intraClass) + float64(g-1)*intra.Latency
		byClass[l.intraClass] += int64(g-1) * total * int64(p) / int64(g)
	}
	if l.nodes > 1 {
		nodes := l.nodes
		vol := float64(nodes-1) / float64(nodes) * float64(total)
		interSpec := n.M.Link(topology.LinkInterNode)
		interClass := topology.LinkInterNode
		if l.racks > 1 {
			interClass = topology.LinkCrossRack
		}
		bw := math.Min(n.M.NodeNICBandwidth, interSpec.Bandwidth*float64(max(g, 1))) / n.derateOf(interClass)
		t += vol/bw + float64(nodes-1)*interSpec.Latency
		class := topology.LinkInterNode
		if l.racks > 1 {
			class = topology.LinkCrossRack
		}
		byClass[class] += int64(nodes-1) * total
	}
	cd := n.congestionDelay(l.racks, byClass[topology.LinkCrossRack]+byClass[topology.LinkInterNode])
	return Cost{Seconds: t + cd, BytesByClass: byClass, CongestionDelay: cd}
}

// ReduceScatter simulates a reduce-scatter of bytes per rank; with a ring
// schedule its cost matches one all-gather pass over the same volume. The
// remainder of a non-divisible size is spread over the first bytes%p
// ranks so the per-rank shards always sum to exactly bytes.
func (n *Network) ReduceScatter(ranks []int, bytes int64) Cost {
	p := len(ranks)
	if p <= 1 || bytes == 0 {
		return Cost{BytesByClass: map[topology.LinkClass]int64{}}
	}
	return n.AllGather(ranks, ShardBytes(bytes, p))
}

// ShardBytes splits bytes into the p per-member shards a reduce-scatter
// charges: bytes/p each, with the bytes%p remainder going one byte apiece
// to the leading members, so the shards always sum to bytes.
func ShardBytes(bytes int64, p int) []int64 {
	per := make([]int64, p)
	base, rem := bytes/int64(p), bytes%int64(p)
	for i := range per {
		per[i] = base
		if int64(i) < rem {
			per[i]++
		}
	}
	return per
}

// Broadcast simulates a binomial-tree broadcast of bytes from the first
// rank to all others.
func (n *Network) Broadcast(ranks []int, bytes int64) Cost {
	if n.deterministic() {
		key := mix(n.hashRanks(kindBroadcast, ranks), uint64(bytes))
		return n.cached(key, func() Cost { return n.broadcast(ranks, bytes) })
	}
	return n.broadcast(ranks, bytes)
}

func (n *Network) broadcast(ranks []int, bytes int64) Cost {
	p := len(ranks)
	if p <= 1 || bytes == 0 {
		return Cost{BytesByClass: map[topology.LinkClass]int64{}}
	}
	l := n.layout(ranks)
	steps := int(math.Ceil(math.Log2(float64(p))))
	slowest := topology.LinkGCDPair
	if l.nodes > 1 {
		slowest = topology.LinkInterNode
	}
	if l.racks > 1 {
		slowest = topology.LinkCrossRack
	}
	spec := n.M.Link(slowest)
	t := float64(steps) * (spec.Latency + float64(bytes)/n.bandwidthOf(slowest))
	byClass := map[topology.LinkClass]int64{slowest: bytes * int64(p-1)}
	cd := n.congestionDelay(l.racks, byClass[topology.LinkCrossRack]+byClass[topology.LinkInterNode])
	return Cost{Seconds: t + cd, BytesByClass: byClass, CongestionDelay: cd}
}

// Barrier returns the synchronisation cost of a barrier among ranks.
func (n *Network) Barrier(ranks []int) Cost {
	// Barriers move no bytes, so their cost is always deterministic.
	return n.cached(n.hashRanks(kindBarrier, ranks), func() Cost { return n.barrier(ranks) })
}

func (n *Network) barrier(ranks []int) Cost {
	p := len(ranks)
	if p <= 1 {
		return Cost{BytesByClass: map[topology.LinkClass]int64{}}
	}
	l := n.layout(ranks)
	class := topology.LinkGCDPair
	if l.nodes > 1 {
		class = topology.LinkInterNode
	}
	if l.racks > 1 {
		class = topology.LinkCrossRack
	}
	steps := math.Ceil(math.Log2(float64(p)))
	return Cost{
		Seconds:      steps * n.M.Link(class).Latency * 2,
		BytesByClass: map[topology.LinkClass]int64{},
	}
}
