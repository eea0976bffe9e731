package devent

import (
	"math"

	"xmoe/internal/netsim"
	"xmoe/internal/topology"
)

// plan is a collective lowered into point-to-point transfers: flow i moves
// bytes[i] from global rank src[i] to dst[i], and may start only once the
// flows deps[depOff[i]:depOff[i+1]] (indices into the same plan) have
// finished. It lives in a simArena and is refilled, not reallocated, by
// each query that misses the memo.
type plan struct {
	src, dst []int32
	bytes    []int64
	depOff   []int32 // len() + 1 offsets into deps
	deps     []int32
}

func (p *plan) len() int { return len(p.bytes) }

func (p *plan) reset() {
	p.src, p.dst, p.bytes, p.deps = p.src[:0], p.dst[:0], p.bytes[:0], p.deps[:0]
	p.depOff = append(p.depOff[:0], 0)
}

// add appends a flow gated on deps and returns its index. A negative dep
// stands for "none", so chain heads pass their -1 cursor unconditionally.
func (p *plan) add(src, dst int, bytes int64, deps ...int32) int32 {
	p.src = append(p.src, int32(src))
	p.dst = append(p.dst, int32(dst))
	p.bytes = append(p.bytes, bytes)
	for _, d := range deps {
		if d >= 0 {
			p.deps = append(p.deps, d)
		}
	}
	p.depOff = append(p.depOff, int32(len(p.deps)))
	return int32(len(p.bytes) - 1)
}

// collective kind tags folded into memo keys.
const (
	kindAlltoAllV uint64 = iota + 1
	kindAllReduce
	kindAllGather
	kindReduceScatter
	kindBroadcast
	kindBarrier
)

func zeroCost() netsim.Cost {
	return netsim.Cost{BytesByClass: map[topology.LinkClass]int64{}}
}

// AlltoAllV lowers an uneven all-to-all into per-source serialized chains:
// source i sends to itself first, then to (i+1), (i+2), ... mod p in
// rotation order, each transfer gated on the previous one (the egress port
// serialisation the analytic model charges). The rotation staggers the
// destinations so that on an even matrix no ingress port ever sees two
// concurrent flows — the schedule is gap-free and telescopes to the
// analytic egress/ingress sums. Zero-byte pairs are skipped, mirroring the
// analytic loops.
func (e *Engine) AlltoAllV(ranks []int, sendBytes [][]int64) netsim.Cost {
	return e.costOf(kindAlltoAllV, "alltoallv", ranks, func(h uint64) uint64 {
		for _, row := range sendBytes {
			for _, b := range row {
				h = mix(h, uint64(b))
			}
		}
		return h
	}, func(pl *plan) {
		p := len(ranks)
		for i := 0; i < p; i++ {
			prev := int32(-1)
			for off := 0; off < p; off++ {
				j := (i + off) % p
				if sendBytes[i][j] == 0 {
					continue
				}
				prev = pl.add(ranks[i], ranks[j], sendBytes[i][j], prev)
			}
		}
	})
}

// ringPass appends one ring pass (q-1 steps) over members ranks: at step s,
// member i sends block (i-s+1) mod q to member (i+1) mod q. Each step-s
// flow depends on the member's own step-(s-1) send and on the upstream
// neighbour's step-(s-1) send (which delivered the block being forwarded)
// — the two-dependency chaining that keeps even rings in lockstep and
// makes uneven ones wait honestly. entry optionally gates each member's
// first send on flows of an earlier phase. Returns each member's last send.
func (pl *plan) ringPass(ranks []int, blocks []int64, entry [][]int32) []int32 {
	q := len(ranks)
	cur, next := make([]int32, q), make([]int32, q)
	for s := 1; s <= q-1; s++ {
		for i := 0; i < q; i++ {
			blk := ((i-s+1)%q + q) % q
			src, dst := ranks[i], ranks[(i+1)%q]
			switch {
			case s > 1:
				next[i] = pl.add(src, dst, blocks[blk], cur[i], cur[(i-1+q)%q])
			case entry != nil:
				next[i] = pl.add(src, dst, blocks[blk], entry[i]...)
			default:
				next[i] = pl.add(src, dst, blocks[blk])
			}
		}
		cur, next = next, cur
	}
	return cur
}

// AllGather lowers a ring all-gather: p-1 steps, each member forwarding
// the block it received in the previous step.
func (e *Engine) AllGather(ranks []int, perRankBytes []int64) netsim.Cost {
	if len(ranks) <= 1 {
		return zeroCost()
	}
	return e.costOf(kindAllGather, "allgather", ranks, func(h uint64) uint64 {
		for _, b := range perRankBytes {
			h = mix(h, uint64(b))
		}
		return h
	}, func(pl *plan) {
		pl.ringPass(ranks, perRankBytes, nil)
	})
}

// ReduceScatter lowers a ring reduce-scatter over the netsim.ShardBytes
// shards; its schedule is one ring pass, like the all-gather.
func (e *Engine) ReduceScatter(ranks []int, bytes int64) netsim.Cost {
	if len(ranks) <= 1 || bytes == 0 {
		return zeroCost()
	}
	return e.costOf(kindReduceScatter, "reducescatter", ranks, func(h uint64) uint64 {
		return mix(h, uint64(bytes))
	}, func(pl *plan) {
		pl.ringPass(ranks, netsim.ShardBytes(bytes, len(ranks)), nil)
	})
}

// allReduce lowers an all-reduce. Single-node groups (and uneven
// multi-node layouts) run a global ring reduce-scatter followed by a ring
// all-gather over the same shards. Even multi-node layouts decompose
// hierarchically, mirroring the analytic model's phases: per-node ring
// reduce-scatter, per-slot cross-node ring all-reduce of each member's
// reduced shard (the g concurrent slot rings are what contend for the
// shared NIC trunks), then per-node ring all-gather.
func (pl *plan) allReduce(m *topology.Machine, ranks []int, bytes int64) {
	p := len(ranks)
	// Group members by node, preserving rank order.
	nodeOrder := []int{}
	byNode := map[int][]int{}
	for _, r := range ranks {
		nd := m.NodeOf(r)
		if _, ok := byNode[nd]; !ok {
			nodeOrder = append(nodeOrder, nd)
		}
		byNode[nd] = append(byNode[nd], r)
	}
	nodes := len(nodeOrder)
	g := len(byNode[nodeOrder[0]])
	even := true
	for _, nd := range nodeOrder {
		if len(byNode[nd]) != g {
			even = false
			break
		}
	}
	if nodes == 1 || !even || g == 0 {
		shards := netsim.ShardBytes(bytes, p)
		last := pl.ringPass(ranks, shards, nil)
		entry := make([][]int32, p)
		for i := range entry {
			entry[i] = []int32{last[i], last[(i-1+p)%p]}
		}
		pl.ringPass(ranks, shards, entry)
		return
	}

	shards := netsim.ShardBytes(bytes, g)
	// Phase 1: per-node ring reduce-scatter.
	rsLast := make(map[int][]int32, nodes)
	for _, nd := range nodeOrder {
		if g == 1 {
			continue
		}
		rsLast[nd] = pl.ringPass(byNode[nd], shards, nil)
	}
	// Phase 2: per-slot cross-node ring all-reduce of shard k.
	agEntry := make(map[int][]int32, nodes) // per node: flows gating phase 3
	for k := 0; k < g; k++ {
		slot := make([]int, nodes)
		entry := make([][]int32, nodes)
		for ni, nd := range nodeOrder {
			slot[ni] = byNode[nd][k]
			entry[ni] = rsLast[nd]
		}
		sub := netsim.ShardBytes(shards[k], nodes)
		last := pl.ringPass(slot, sub, entry)
		entry2 := make([][]int32, nodes)
		for ni := range entry2 {
			entry2[ni] = []int32{last[ni], last[(ni-1+nodes)%nodes]}
		}
		last = pl.ringPass(slot, sub, entry2)
		for ni, nd := range nodeOrder {
			agEntry[nd] = append(agEntry[nd], last[ni], last[(ni-1+nodes)%nodes])
		}
	}
	// Phase 3: per-node ring all-gather of the reduced shards.
	for _, nd := range nodeOrder {
		if g == 1 {
			continue
		}
		entry := make([][]int32, g)
		for i := range entry {
			entry[i] = agEntry[nd]
		}
		pl.ringPass(byNode[nd], shards, entry)
	}
}

// AllReduce lowers a hierarchical (or flat-ring) all-reduce.
func (e *Engine) AllReduce(ranks []int, bytes int64) netsim.Cost {
	if len(ranks) <= 1 || bytes == 0 {
		return zeroCost()
	}
	return e.costOf(kindAllReduce, "allreduce", ranks, func(h uint64) uint64 {
		return mix(h, uint64(bytes))
	}, func(pl *plan) {
		pl.allReduce(e.G.M, ranks, bytes)
	})
}

// Broadcast lowers a binomial-tree broadcast from ranks[0]: in round k the
// 2^k informed ranks each send to one uninformed rank, so the last leaf
// finishes after ceil(log2 p) serialized rounds.
func (e *Engine) Broadcast(ranks []int, bytes int64) netsim.Cost {
	p := len(ranks)
	if p <= 1 || bytes == 0 {
		return zeroCost()
	}
	return e.costOf(kindBroadcast, "broadcast", ranks, func(h uint64) uint64 {
		return mix(h, uint64(bytes))
	}, func(pl *plan) {
		delivered := make([]int32, p) // the flow that informed each rank
		delivered[0] = -1
		for dist := 1; dist < p; dist *= 2 {
			for r := 0; r < dist && r+dist < p; r++ {
				delivered[r+dist] = pl.add(ranks[r], ranks[r+dist], bytes, delivered[r])
			}
		}
	})
}

// Barrier lowers a dissemination barrier with explicit acknowledgements:
// in round k, rank i sends a zero-byte request to (i+2^k) mod p and
// proceeds to the next round once the matching zero-byte ack returns — two
// latency charges per round, matching the analytic 2α-per-step barrier.
func (e *Engine) Barrier(ranks []int) netsim.Cost {
	p := len(ranks)
	if p <= 1 {
		return zeroCost()
	}
	return e.costOf(kindBarrier, "barrier", ranks, func(h uint64) uint64 { return h }, func(pl *plan) {
		steps := int(math.Ceil(math.Log2(float64(p))))
		// gate[i] is the ack that let rank i into the current round.
		gate, next, reqs := make([]int32, p), make([]int32, p), make([]int32, p)
		for i := range gate {
			gate[i] = -1
		}
		for k := 0; k < steps; k++ {
			d := 1 << k
			for i := 0; i < p; i++ {
				reqs[i] = pl.add(ranks[i], ranks[(i+d)%p], 0, gate[i])
			}
			for i := 0; i < p; i++ {
				j := (i + d) % p
				next[i] = pl.add(ranks[j], ranks[i], 0, reqs[i], gate[j])
			}
			gate, next = next, gate
		}
	})
}
