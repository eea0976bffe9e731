package netsim

import (
	"testing"
	"testing/quick"

	"xmoe/internal/topology"
)

func ranksRange(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

func newQuiet(m *topology.Machine) *Network {
	n := New(m, 1)
	n.DisableCongestion = true
	return n
}

func TestAlltoAllIntraNodeFasterThanInterNode(t *testing.T) {
	n := newQuiet(topology.Frontier())
	const b = 64 << 20                                          // 64 MiB per pair
	intra := n.AlltoAll(ranksRange(8), b)                       // one node
	inter := n.AlltoAll([]int{0, 8, 16, 24, 32, 40, 48, 56}, b) // 8 nodes
	if intra.Seconds >= inter.Seconds {
		t.Fatalf("intra-node a2a (%.4fs) should beat inter-node (%.4fs)", intra.Seconds, inter.Seconds)
	}
	if inter.InterNodeBytes() == 0 {
		t.Fatal("inter-node a2a must cross node boundaries")
	}
	if intra.InterNodeBytes() != 0 {
		t.Fatal("single-node a2a must not use inter-node links")
	}
}

func TestAlltoAllVolumeScalesTime(t *testing.T) {
	n := newQuiet(topology.Frontier())
	small := n.AlltoAll(ranksRange(16), 1<<20)
	big := n.AlltoAll(ranksRange(16), 16<<20)
	if big.Seconds <= small.Seconds {
		t.Fatal("16x payload must take longer")
	}
	ratio := big.Seconds / small.Seconds
	if ratio < 8 || ratio > 24 {
		t.Fatalf("time ratio %.2f not roughly linear in volume", ratio)
	}
}

func TestAlltoAllVZeroTraffic(t *testing.T) {
	n := newQuiet(topology.Frontier())
	send := make([][]int64, 4)
	for i := range send {
		send[i] = make([]int64, 4)
	}
	c := n.AlltoAllV(ranksRange(4), send)
	if c.Seconds != 0 || c.TotalBytes() != 0 {
		t.Fatalf("empty a2av should be free, got %.6fs %d bytes", c.Seconds, c.TotalBytes())
	}
}

func TestAlltoAllVByteAccounting(t *testing.T) {
	n := newQuiet(topology.Frontier())
	// Ranks 0,1 share an MI250X; rank 8 is on another node.
	ranks := []int{0, 1, 8}
	send := [][]int64{
		{0, 100, 200}, // 0->1 pair, 0->8 inter
		{300, 0, 0},   // 1->0 pair
		{0, 400, 0},   // 8->1 inter
	}
	c := n.AlltoAllV(ranks, send)
	if got := c.BytesByClass[topology.LinkGCDPair]; got != 400 {
		t.Fatalf("pair bytes = %d, want 400", got)
	}
	if got := c.BytesByClass[topology.LinkInterNode]; got != 600 {
		t.Fatalf("inter-node bytes = %d, want 600", got)
	}
	if c.InterNodeBytes() != 600 {
		t.Fatalf("InterNodeBytes = %d, want 600", c.InterNodeBytes())
	}
}

func TestNICAggregationLimitsNodeEgress(t *testing.T) {
	// All 8 GPUs of node 0 each send 100 MiB to distinct GPUs of node 1:
	// 800 MiB must squeeze through the 100 GB/s NIC => >= 8 ms.
	n := newQuiet(topology.Frontier())
	ranks := ranksRange(16)
	send := make([][]int64, 16)
	for i := range send {
		send[i] = make([]int64, 16)
	}
	const b = 100 << 20
	for g := 0; g < 8; g++ {
		send[g][8+g] = b
	}
	c := n.AlltoAllV(ranks, send)
	wantMin := float64(8*b) / n.M.NodeNICBandwidth
	if c.Seconds < wantMin {
		t.Fatalf("a2av %.4fs beats NIC aggregate floor %.4fs", c.Seconds, wantMin)
	}
}

func TestCrossRackCongestionOutliers(t *testing.T) {
	m := topology.Frontier()
	n := New(m, 7)
	// 512 GPUs spanning 2 racks: outliers must appear over many trials.
	ranks := ranksRange(512)
	send := make([][]int64, len(ranks))
	for i := range send {
		send[i] = make([]int64, len(ranks))
		for j := range send[i] {
			if i != j {
				send[i][j] = 1 << 14
			}
		}
	}
	outliers := 0
	var base float64
	for trial := 0; trial < 200; trial++ {
		c := n.AlltoAllV(ranks, send)
		if base == 0 {
			base = c.Seconds - c.CongestionDelay
		}
		if c.CongestionDelay > 0 {
			outliers++
			if c.CongestionDelay < outlierMinDelay {
				t.Fatalf("outlier delay %.4f below configured minimum", c.CongestionDelay)
			}
		}
	}
	if outliers == 0 {
		t.Fatal("expected congestion outliers over 200 cross-rack a2a runs")
	}
	if outliers > 100 {
		t.Fatalf("outliers should be the tail, got %d/200", outliers)
	}
}

func TestSingleRackNoCongestion(t *testing.T) {
	n := New(topology.Frontier(), 3)
	for trial := 0; trial < 100; trial++ {
		c := n.AlltoAll(ranksRange(256), 1<<16)
		if c.CongestionDelay != 0 {
			t.Fatal("single-rack collective must not hit cross-rack congestion")
		}
	}
}

func TestAllReduceScalesWithBytesAndSpan(t *testing.T) {
	n := newQuiet(topology.Frontier())
	small := n.AllReduce(ranksRange(8), 1<<20)
	big := n.AllReduce(ranksRange(8), 64<<20)
	if big.Seconds <= small.Seconds {
		t.Fatal("allreduce time must grow with volume")
	}
	intra := n.AllReduce(ranksRange(8), 64<<20)
	inter := n.AllReduce(ranksRange(64), 64<<20)
	if inter.Seconds <= intra.Seconds {
		t.Fatal("multi-node allreduce must cost more than single-node")
	}
	if n.AllReduce(ranksRange(1), 1<<20).Seconds != 0 {
		t.Fatal("single-rank allreduce is free")
	}
}

func TestAllGatherAndReduceScatter(t *testing.T) {
	n := newQuiet(topology.Frontier())
	per := make([]int64, 16)
	for i := range per {
		per[i] = 1 << 20
	}
	ag := n.AllGather(ranksRange(16), per)
	if ag.Seconds <= 0 {
		t.Fatal("allgather must take time")
	}
	rs := n.ReduceScatter(ranksRange(16), 16<<20)
	if rs.Seconds <= 0 {
		t.Fatal("reduce-scatter must take time")
	}
}

func TestBroadcastAndBarrier(t *testing.T) {
	n := newQuiet(topology.Frontier())
	bc := n.Broadcast(ranksRange(64), 1<<20)
	if bc.Seconds <= 0 {
		t.Fatal("broadcast must take time")
	}
	bar := n.Barrier(ranksRange(64))
	if bar.Seconds <= 0 || bar.Seconds > 1e-3 {
		t.Fatalf("barrier time %.6fs out of expected sub-ms range", bar.Seconds)
	}
	if n.Barrier(ranksRange(1)).Seconds != 0 {
		t.Fatal("single-rank barrier is free")
	}
}

// The DP-first vs EP-first insight (Appendix C.1) depends on allreduce over
// co-located ranks being much cheaper than over scattered ranks.
func TestAllReducePlacementSensitivity(t *testing.T) {
	n := newQuiet(topology.Frontier())
	const bytes = 256 << 20
	colocated := n.AllReduce(ranksRange(8), bytes) // all on node 0
	scattered := make([]int, 8)
	for i := range scattered {
		scattered[i] = i * 8 // one GPU on each of 8 nodes
	}
	spread := n.AllReduce(scattered, bytes)
	if spread.Seconds < 2*colocated.Seconds {
		t.Fatalf("scattered allreduce (%.4fs) should be >=2x colocated (%.4fs)",
			spread.Seconds, colocated.Seconds)
	}
}

// totalBytes sums a cost's aggregate traffic over every link class,
// including the intra-node classes (TotalBytes excludes only LinkLocal).
func totalBytes(c Cost) int64 {
	var t int64
	for _, b := range c.BytesByClass {
		t += b
	}
	return t
}

// TestCollectiveByteAccountingConvention pins the documented convention:
// BytesByClass aggregates the bytes moved per link class across the whole
// group, so the cross-collective ring identities hold exactly.
func TestCollectiveByteAccountingConvention(t *testing.T) {
	n := newQuiet(topology.Frontier())
	const B = int64(96 << 20)

	// Layouts: one full node (p=8, single intra tier) and an even
	// multi-node span (p=32 over 4 nodes).
	for _, tc := range []struct {
		name  string
		ranks []int
	}{
		{"single-node", ranksRange(8)},
		{"multi-node", ranksRange(32)},
	} {
		p := int64(len(tc.ranks))

		// All-reduce: ring identity 2(p-1)/p x B x p = 2(p-1)B, and the
		// hierarchical intra+inter split must telescope to the same total.
		ar := n.AllReduce(tc.ranks, B)
		if got, want := totalBytes(ar), 2*(p-1)*B; got != want {
			t.Errorf("%s allreduce aggregate = %d, want 2(p-1)B = %d", tc.name, got, want)
		}

		// All-gather: (p-1)/p x sum(perRankBytes) x p = (p-1) x total.
		per := make([]int64, p)
		var sum int64
		for i := range per {
			per[i] = B / int64(p)
			sum += per[i]
		}
		ag := n.AllGather(tc.ranks, per)
		if got, want := totalBytes(ag), (p-1)*sum; got != want {
			t.Errorf("%s allgather aggregate = %d, want (p-1)Σper = %d", tc.name, got, want)
		}

		// Reduce-scatter: one all-gather pass over the same volume, so the
		// same identity holds with Σper == B (remainder included).
		odd := B + 13 // not divisible by p
		rs := n.ReduceScatter(tc.ranks, odd)
		if got, want := totalBytes(rs), (p-1)*odd; got != want {
			t.Errorf("%s reduce-scatter aggregate = %d, want (p-1)B = %d", tc.name, got, want)
		}

		// Even all-to-all: exactly the sum of pairwise payloads.
		const pair = int64(1 << 20)
		aa := n.AlltoAll(tc.ranks, pair)
		if got, want := totalBytes(aa), p*(p-1)*pair; got != want {
			t.Errorf("%s alltoall aggregate = %d, want p(p-1)pair = %d", tc.name, got, want)
		}

		// Broadcast: every non-root member receives the payload once.
		bc := n.Broadcast(tc.ranks, B)
		if got, want := totalBytes(bc), (p-1)*B; got != want {
			t.Errorf("%s broadcast aggregate = %d, want (p-1)B = %d", tc.name, got, want)
		}
	}
}

// TestReduceScatterRemainder regresses the integer-division remainder
// drop: the per-rank shards must sum to exactly the input size, so the
// cost of a non-divisible reduce-scatter dominates the truncated one.
func TestReduceScatterRemainder(t *testing.T) {
	n := newQuiet(topology.Frontier())
	ranks := ranksRange(24) // 24 ranks, 3 nodes
	const B = int64(1<<24) + 17
	rs := n.ReduceScatter(ranks, B)
	if got, want := totalBytes(rs), int64(23)*B; got != want {
		t.Fatalf("aggregate bytes %d, want (p-1)B=%d: remainder dropped", got, want)
	}
	trunc := n.ReduceScatter(ranks, B-17) // divisible by 24
	if rs.Seconds < trunc.Seconds {
		t.Fatalf("non-divisible reduce-scatter (%.9fs) cheaper than truncated (%.9fs)",
			rs.Seconds, trunc.Seconds)
	}
}

func TestQuickAlltoAllVMonotoneInVolume(t *testing.T) {
	n := newQuiet(topology.Frontier())
	f := func(seed uint64) bool {
		// Random sparse traffic; doubling every entry must not reduce time.
		rng := seed
		next := func() uint64 {
			rng += 0x9e3779b97f4a7c15
			z := rng
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			return z ^ (z >> 27)
		}
		p := 2 + int(next()%14)
		ranks := ranksRange(p * 4)[:p]
		send := make([][]int64, p)
		dbl := make([][]int64, p)
		for i := range send {
			send[i] = make([]int64, p)
			dbl[i] = make([]int64, p)
			for j := range send[i] {
				if i != j && next()%3 == 0 {
					b := int64(next() % (1 << 22))
					send[i][j] = b
					dbl[i][j] = 2 * b
				}
			}
		}
		return n.AlltoAllV(ranks, dbl).Seconds >= n.AlltoAllV(ranks, send).Seconds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLinkDerateSlowsOnlyTheDeratedClass pins the degraded-link fault
// class: derating a link class stretches the time of collectives using
// it (proportionally for bandwidth-bound exchanges), leaves byte
// accounting untouched, leaves other classes alone, and is never served
// stale from the cost memo.
func TestLinkDerateSlowsOnlyTheDeratedClass(t *testing.T) {
	m := topology.Frontier()
	interRanks := []int{0, 8, 16, 24} // 4 nodes, one rack
	intraRanks := ranksRange(4)       // one node
	const b = 16 << 20

	healthy := newQuiet(m)
	baseInter := healthy.AlltoAll(interRanks, b)
	baseIntra := healthy.AlltoAll(intraRanks, b)

	sick := newQuiet(m)
	sick.SetLinkDerate(map[topology.LinkClass]float64{topology.LinkInterNode: 4})
	slowInter := sick.AlltoAll(interRanks, b)
	sameIntra := sick.AlltoAll(intraRanks, b)

	if slowInter.Seconds <= baseInter.Seconds {
		t.Fatalf("derated inter-node a2a %.6fs not slower than healthy %.6fs",
			slowInter.Seconds, baseInter.Seconds)
	}
	if sameIntra.Seconds != baseIntra.Seconds {
		t.Fatalf("intra-node a2a must be unaffected: %.9f vs %.9f",
			sameIntra.Seconds, baseIntra.Seconds)
	}
	for class, bytes := range baseInter.BytesByClass {
		if slowInter.BytesByClass[class] != bytes {
			t.Fatalf("derate changed byte accounting for %v", class)
		}
	}

	// AllReduce and Broadcast across nodes must slow too.
	if h, s := healthy.AllReduce(interRanks, b), sick.AllReduce(interRanks, b); s.Seconds <= h.Seconds {
		t.Fatalf("derated allreduce %.6fs not slower than %.6fs", s.Seconds, h.Seconds)
	}
	if h, s := healthy.Broadcast(interRanks, b), sick.Broadcast(interRanks, b); s.Seconds <= h.Seconds {
		t.Fatalf("derated broadcast %.6fs not slower than %.6fs", s.Seconds, h.Seconds)
	}

	// Clearing the derate on the same Network must return to baseline —
	// the memo keys fold the derates, so no stale entry can be served.
	sick.SetLinkDerate(nil)
	if got := sick.AlltoAll(interRanks, b); got.Seconds != baseInter.Seconds {
		t.Fatalf("cleared derate served stale cost: %.9f vs %.9f", got.Seconds, baseInter.Seconds)
	}

	// Derates <= 1 and unknown classes are healthy.
	noop := newQuiet(m)
	noop.SetLinkDerate(map[topology.LinkClass]float64{topology.LinkInterNode: 0.5})
	if got := noop.AlltoAll(interRanks, b); got.Seconds != baseInter.Seconds {
		t.Fatalf("derate <= 1 must be a no-op: %.9f vs %.9f", got.Seconds, baseInter.Seconds)
	}
}
