package devent

// The map-based simulator and the slice-of-deps lowering of the commit
// before the arena rewrite, kept verbatim as the test-only reference the
// dense engine must reproduce bit for bit (Seconds, BytesByClass and the
// full event log). Nothing outside the tests may call into this file.

import (
	"fmt"
	"math"

	"xmoe/internal/netsim"
	"xmoe/internal/topology"
)

// refFlowSpec describes one point-to-point transfer of a decomposed
// collective before simulation: source and destination global ranks, the
// payload, and the flows (indices into the same plan) that must finish
// before this one may start.
type refFlowSpec struct {
	src, dst int
	bytes    int64
	deps     []int32
}

func refDerateOf(d map[topology.LinkClass]float64, class topology.LinkClass) float64 {
	if v, ok := d[class]; ok && v > 1 {
		return v
	}
	return 1
}

// flow runtime states.
const (
	fsWaiting uint8 = iota // dependencies outstanding
	fsReady                // released, queued for its ports
	fsGranted              // ports held, latency phase
	fsActive               // moving bytes
	fsDone
)

type refSimFlow struct {
	spec       refFlowSpec
	class      topology.LinkClass
	ports      []topology.LinkID // exclusive (unshared) links on the route
	trunks     []topology.LinkID // shared links on the route
	cap        float64           // class bandwidth after derate (rate ceiling)
	latency    float64           // class α plus shared-hop latencies
	ndeps      int
	dependents []int32
	state      uint8
	// fluid phase bookkeeping (flows with trunks only):
	rate      float64
	remaining float64
	lastT     float64
	gen       uint32
}

// simulateRef runs one collective's flow DAG to completion and returns its
// cost (and, when record is set, the event log).
func (e *Engine) simulateRef(name string, ranks []int, specs []refFlowSpec, derate map[topology.LinkClass]float64, record bool) (netsim.Cost, CollectiveLog) {
	g := e.G
	m := g.M
	byClass := map[topology.LinkClass]int64{}
	if len(specs) == 0 {
		return netsim.Cost{BytesByClass: byClass}, CollectiveLog{Kind: name, Ranks: ranks}
	}

	flows := make([]refSimFlow, len(specs))
	var routeBuf []topology.LinkID
	trunkCap := make(map[topology.LinkID]float64)
	for i := range specs {
		sp := specs[i]
		f := &flows[i]
		f.spec = sp
		f.class = m.Classify(sp.src, sp.dst)
		if sp.bytes > 0 {
			byClass[f.class] += sp.bytes
		}
		lspec := m.Link(f.class)
		f.latency = lspec.Latency
		f.cap = lspec.Bandwidth / refDerateOf(derate, f.class)
		routeBuf = g.Route(sp.src, sp.dst, routeBuf[:0])
		for _, id := range routeBuf {
			l := g.Link(id)
			if l.Shared {
				f.trunks = append(f.trunks, id)
				f.latency += l.Latency
				if _, ok := trunkCap[id]; !ok {
					trunkCap[id] = l.Bandwidth / refDerateOf(derate, l.Class)
				}
			} else {
				f.ports = append(f.ports, id)
			}
		}
		f.ndeps = len(sp.deps)
	}
	for i := range specs {
		for _, d := range specs[i].deps {
			flows[d].dependents = append(flows[d].dependents, int32(i))
		}
	}

	var (
		q        refEventQueue
		seq      uint64
		now      float64
		portBusy = make(map[topology.LinkID]bool)
		readyQ   []int32
		active   []int32 // fluid flows (with trunks) currently draining
		events   []Event
		makespan float64
		done     int
	)
	push := func(t float64, k eventKind, fl int32, gen uint32) {
		seq++
		q.push(refEvent{t: t, seq: seq, kind: k, flow: fl, gen: gen})
	}
	logEv := func(kind string, f *refSimFlow) {
		if record {
			events = append(events, Event{
				T: now, Kind: kind, Src: f.spec.src, Dst: f.spec.dst,
				Bytes: f.spec.bytes, Class: f.class,
			})
		}
	}

	// grant scans the ready queue in release order and starts every flow
	// whose ports are all free. Single pass: ports are only freed by
	// finish events, never by a grant.
	grant := func() {
		out := readyQ[:0]
		for _, fl := range readyQ {
			f := &flows[fl]
			free := true
			for _, p := range f.ports {
				if portBusy[p] {
					free = false
					break
				}
			}
			if !free {
				out = append(out, fl)
				continue
			}
			for _, p := range f.ports {
				portBusy[p] = true
			}
			f.state = fsGranted
			logEv("start", f)
			push(now+f.latency, evActivate, fl, f.gen)
		}
		readyQ = out
	}

	// recompute runs progressive water-filling over the fluid flows: all
	// rates rise together until a flow hits its class cap or a trunk
	// saturates; saturated parties freeze and filling continues. Flows
	// whose rate changed get their remaining bytes settled at the old rate
	// and a rescheduled finish. Flows without trunks never enter here, so
	// their port-exclusive timing stays bit-exact.
	recompute := func() {
		if len(active) == 0 {
			return
		}
		type lk struct {
			rem float64
			n   int
		}
		links := map[topology.LinkID]*lk{}
		var order []topology.LinkID
		for _, fl := range active {
			for _, id := range flows[fl].trunks {
				l := links[id]
				if l == nil {
					l = &lk{rem: trunkCap[id]}
					links[id] = l
					order = append(order, id)
				}
				l.n++
			}
		}
		newRate := make([]float64, len(active))
		frozen := make([]bool, len(active))
		for unfrozen := len(active); unfrozen > 0; {
			inc := math.Inf(1)
			for k, fl := range active {
				if !frozen[k] {
					if d := flows[fl].cap - newRate[k]; d < inc {
						inc = d
					}
				}
			}
			for _, id := range order {
				if l := links[id]; l.n > 0 {
					if s := l.rem / float64(l.n); s < inc {
						inc = s
					}
				}
			}
			if inc < 0 || math.IsInf(inc, 1) {
				inc = 0
			}
			for k := range active {
				if !frozen[k] {
					newRate[k] += inc
				}
			}
			for _, id := range order {
				l := links[id]
				l.rem -= inc * float64(l.n)
			}
			progressed := false
			for k, fl := range active {
				if frozen[k] {
					continue
				}
				f := &flows[fl]
				stop := newRate[k] >= f.cap*(1-1e-12)
				if !stop {
					for _, id := range f.trunks {
						if links[id].rem <= trunkCap[id]*1e-12 {
							stop = true
							break
						}
					}
				}
				if stop {
					frozen[k] = true
					unfrozen--
					progressed = true
					for _, id := range f.trunks {
						links[id].n--
					}
				}
			}
			if !progressed {
				break
			}
		}
		for k, fl := range active {
			f := &flows[fl]
			r := newRate[k]
			if r <= 0 {
				// Numerical corner: never stall a flow entirely.
				r = f.cap * 1e-9
			}
			if r != f.rate {
				f.remaining -= f.rate * (now - f.lastT)
				if f.remaining < 0 {
					f.remaining = 0
				}
				f.lastT = now
				f.rate = r
				f.gen++
				push(now+f.remaining/r, evFinish, fl, f.gen)
			}
		}
	}

	for i := range flows {
		if flows[i].ndeps == 0 {
			flows[i].state = fsReady
			readyQ = append(readyQ, int32(i))
		}
	}
	grant()

	for q.len() > 0 {
		ev := q.pop()
		f := &flows[ev.flow]
		if ev.kind == evFinish && (ev.gen != f.gen || f.state == fsDone) {
			continue
		}
		now = ev.t
		switch ev.kind {
		case evActivate:
			f.state = fsActive
			if len(f.trunks) == 0 || f.spec.bytes == 0 {
				t := now
				if f.spec.bytes > 0 {
					t = now + float64(f.spec.bytes)/f.cap
				}
				push(t, evFinish, ev.flow, f.gen)
			} else {
				f.rate = 0
				f.remaining = float64(f.spec.bytes)
				f.lastT = now
				active = append(active, ev.flow)
				recompute()
			}
		case evFinish:
			f.state = fsDone
			done++
			if now > makespan {
				makespan = now
			}
			logEv("finish", f)
			for _, p := range f.ports {
				portBusy[p] = false
			}
			wasFluid := false
			for k, fl := range active {
				if fl == ev.flow {
					active = append(active[:k], active[k+1:]...)
					wasFluid = true
					break
				}
			}
			for _, d := range f.dependents {
				df := &flows[d]
				df.ndeps--
				if df.ndeps == 0 {
					df.state = fsReady
					readyQ = append(readyQ, d)
				}
			}
			grant()
			if wasFluid {
				recompute()
			}
		}
	}
	if done != len(flows) {
		panic(fmt.Sprintf("devent: %s over %d ranks deadlocked with %d/%d flows done",
			name, len(ranks), done, len(flows)))
	}
	return netsim.Cost{Seconds: makespan, BytesByClass: byClass},
		CollectiveLog{Kind: name, Ranks: append([]int(nil), ranks...), Seconds: makespan, Events: events}
}

// refAlltoAllV lowers an uneven all-to-all into per-source serialized chains:
// source i sends to itself first, then to (i+1), (i+2), ... mod p in
// rotation order, each transfer gated on the previous one (the egress port
// serialisation the analytic model charges). The rotation staggers the
// destinations so that on an even matrix no ingress port ever sees two
// concurrent flows — the schedule is gap-free and telescopes to the
// analytic egress/ingress sums. Zero-byte pairs are skipped, mirroring the
// analytic loops.
func refAlltoAllV(ranks []int, sendBytes [][]int64) []refFlowSpec {
	p := len(ranks)
	var flows []refFlowSpec
	for i := 0; i < p; i++ {
		prev := int32(-1)
		for off := 0; off < p; off++ {
			j := (i + off) % p
			if sendBytes[i][j] == 0 {
				continue
			}
			var deps []int32
			if prev >= 0 {
				deps = []int32{prev}
			}
			flows = append(flows, refFlowSpec{ranks[i], ranks[j], sendBytes[i][j], deps})
			prev = int32(len(flows) - 1)
		}
	}
	return flows
}

// refRingShards splits bytes into q per-member shards, remainder spread over
// the first bytes%q members.
func refRingShards(bytes int64, q int) []int64 {
	per := make([]int64, q)
	base, rem := bytes/int64(q), bytes%int64(q)
	for i := range per {
		per[i] = base
		if int64(i) < rem {
			per[i]++
		}
	}
	return per
}

// refRingPass appends one ring pass (q-1 steps) over members ranks: at step s,
// member i sends block (i-s+1) mod q to member (i+1) mod q. Each step-s
// flow depends on the member's own step-(s-1) send and on the upstream
// neighbour's step-(s-1) send (which delivered the block being forwarded)
// — the two-dependency chaining that keeps even rings in lockstep and
// makes uneven ones wait honestly. entry optionally gates each member's
// first send on flows of an earlier phase. Returns the extended plan and
// each member's last send.
func refRingPass(flows []refFlowSpec, ranks []int, blocks []int64, entry [][]int32) ([]refFlowSpec, []int32) {
	q := len(ranks)
	cur := make([]int32, q)
	for s := 1; s <= q-1; s++ {
		next := make([]int32, q)
		for i := 0; i < q; i++ {
			blk := ((i-s+1)%q + q) % q
			var deps []int32
			if s == 1 {
				if entry != nil {
					deps = entry[i]
				}
			} else {
				deps = []int32{cur[i], cur[(i-1+q)%q]}
			}
			flows = append(flows, refFlowSpec{ranks[i], ranks[(i+1)%q], blocks[blk], deps})
			next[i] = int32(len(flows) - 1)
		}
		cur = next
	}
	return flows, cur
}

// refAllReduce lowers an all-reduce. Single-node groups (and uneven
// multi-node layouts) run a global ring reduce-scatter followed by a ring
// all-gather over the same shards. Even multi-node layouts decompose
// hierarchically, mirroring the analytic model's phases: per-node ring
// reduce-scatter, per-slot cross-node ring all-reduce of each member's
// reduced shard (the g concurrent slot rings are what contend for the
// shared NIC trunks), then per-node ring all-gather.
func (e *Engine) refAllReduce(ranks []int, bytes int64) []refFlowSpec {
	m := e.G.M
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
		shards := refRingShards(bytes, p)
		flows, last := refRingPass(nil, ranks, shards, nil)
		entry := make([][]int32, p)
		for i := range entry {
			entry[i] = []int32{last[i], last[(i-1+p)%p]}
		}
		flows, _ = refRingPass(flows, ranks, shards, entry)
		return flows
	}

	var flows []refFlowSpec
	shards := refRingShards(bytes, g)
	// Phase 1: per-node ring reduce-scatter.
	rsLast := make(map[int][]int32, nodes)
	for _, nd := range nodeOrder {
		if g == 1 {
			continue
		}
		var last []int32
		flows, last = refRingPass(flows, byNode[nd], shards, nil)
		rsLast[nd] = last
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
		sub := refRingShards(shards[k], nodes)
		var last []int32
		flows, last = refRingPass(flows, slot, sub, entry)
		entry2 := make([][]int32, nodes)
		for ni := range entry2 {
			entry2[ni] = []int32{last[ni], last[(ni-1+nodes)%nodes]}
		}
		flows, last = refRingPass(flows, slot, sub, entry2)
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
		flows, _ = refRingPass(flows, byNode[nd], shards, entry)
	}
	return flows
}

// refBroadcast lowers a binomial-tree broadcast from ranks[0]: in round k the
// 2^k informed ranks each send to one uninformed rank, so the last leaf
// finishes after ceil(log2 p) serialized rounds.
func refBroadcast(ranks []int, bytes int64) []refFlowSpec {
	p := len(ranks)
	if p <= 1 || bytes == 0 {
		return nil
	}
	var flows []refFlowSpec
	delivered := make([]int32, p)
	for i := range delivered {
		delivered[i] = -1
	}
	for dist := 1; dist < p; dist *= 2 {
		for r := 0; r < dist && r+dist < p; r++ {
			var deps []int32
			if delivered[r] >= 0 {
				deps = []int32{delivered[r]}
			}
			flows = append(flows, refFlowSpec{ranks[r], ranks[r+dist], bytes, deps})
			delivered[r+dist] = int32(len(flows) - 1)
		}
	}
	return flows
}

// refBarrier lowers a dissemination barrier with explicit acknowledgements:
// in round k, rank i sends a zero-byte request to (i+2^k) mod p and
// proceeds to the next round once the matching zero-byte ack returns — two
// latency charges per round, matching the analytic 2α-per-step barrier.
func refBarrier(ranks []int) []refFlowSpec {
	p := len(ranks)
	if p <= 1 {
		return nil
	}
	var flows []refFlowSpec
	steps := int(math.Ceil(math.Log2(float64(p))))
	gate := make([][]int32, p)
	for k := 0; k < steps; k++ {
		d := 1 << k
		reqs := make([]int32, p)
		for i := 0; i < p; i++ {
			flows = append(flows, refFlowSpec{ranks[i], ranks[(i+d)%p], 0, gate[i]})
			reqs[i] = int32(len(flows) - 1)
		}
		next := make([][]int32, p)
		for i := 0; i < p; i++ {
			j := (i + d) % p
			deps := append([]int32{reqs[i]}, gate[j]...)
			flows = append(flows, refFlowSpec{ranks[j], ranks[i], 0, deps})
			next[i] = []int32{int32(len(flows) - 1)}
		}
		gate = next
	}
	return flows
}

// The lazily invalidated heap simulateRef schedules on: a rate change
// bumps the flow's generation and pushes a fresh finish, and stale events
// are dropped on pop.
type refEvent struct {
	t    float64
	seq  uint64
	kind eventKind
	flow int32
	gen  uint32
}

// refEventQueue is a binary min-heap ordered by (time, sequence): events
// scheduled for the same instant fire in scheduling order, which is what
// makes the simulation deterministic — no map iteration or goroutine
// interleaving ever decides a tie.
type refEventQueue struct {
	h []refEvent
}

func (q *refEventQueue) len() int { return len(q.h) }

func (q *refEventQueue) less(a, b refEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (q *refEventQueue) push(e refEvent) {
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(q.h[i], q.h[p]) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

func (q *refEventQueue) pop() refEvent {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && q.less(q.h[l], q.h[s]) {
			s = l
		}
		if r < last && q.less(q.h[r], q.h[s]) {
			s = r
		}
		if s == i {
			break
		}
		q.h[i], q.h[s] = q.h[s], q.h[i]
		i = s
	}
	return top
}
