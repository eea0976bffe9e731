package devent

import (
	"fmt"
	"math"

	"xmoe/internal/topology"
)

// classTable is one query's view of the machine's link classes with the
// engine's derates applied: what a flow of each class pays in startup
// latency and the rate ceiling it is served at.
type classTable struct {
	derate  [numClasses]float64
	latency [numClasses]float64
	cap     [numClasses]float64
}

func classesOf(m *topology.Machine, derate *[numClasses]float64) classTable {
	ct := classTable{derate: *derate}
	for c := range ct.cap {
		spec := m.Link(topology.LinkClass(c))
		ct.latency[c] = spec.Latency
		ct.cap[c] = spec.Bandwidth / derate[c]
	}
	return ct
}

// span is a half-open index range into one of the arena's flat backings.
type span struct{ lo, hi int32 }

// simFlow is what the scheduler keeps per flow; endpoints, payload and
// dependencies stay in the plan.
type simFlow struct {
	cap     float64 // class bandwidth after derate (rate ceiling)
	latency float64 // class α plus shared-hop latencies
	ports   span    // of simArena.ports: exclusive (unshared) links on the route
	trunks  span    // of simArena.trunkRefs: shared links on the route
	deps    span    // of simArena.dependents: the flows this one releases
	ndeps   int32   // dependencies still outstanding
	class   topology.LinkClass
}

// activeFlow is the fluid-phase bookkeeping of a draining flow (one with
// trunks), held compactly so that water-filling walks a short dense array
// instead of chasing simFlows.
type activeFlow struct {
	flow      int32
	trunks    span    // simFlow.trunks
	cap       float64 // simFlow.cap
	stop      float64 // freeze threshold, cap * (1 - 1e-12)
	rate      float64 // current fair-share rate
	remaining float64 // bytes left as of lastT
	lastT     float64
	fill      float64 // water-filling scratch: the rate being computed
}

// trunk is a shared link some flow of the current query crosses.
type trunk struct {
	link topology.LinkID
	cap  float64 // bandwidth after derate
	eps  float64 // saturation threshold, cap * 1e-12
	n    int32   // active flows crossing it
	// water-filling scratch:
	rem float64 // bandwidth not yet handed out
	cnt int32   // unfrozen flows crossing it
	sat bool    // rem <= eps
}

// simArena is the storage of one in-flight cost query: the lowered plan,
// the per-flow and per-link tables, the event heap, the scheduler queues
// and the water-filling scratch. The engine keeps idle arenas on a free
// list and hands one to each query that misses the memo, so every slice
// here is grown to the largest collective seen and then reused, never
// freed. Nothing in an arena outlives its query: costOf copies out what
// the caller receives.
type simArena struct {
	plan plan

	flows      []simFlow
	ports      []topology.LinkID
	trunkRefs  []int32 // indices into trunks, not LinkIDs
	dependents []int32
	route      []topology.LinkID

	// The shared links this query's flows cross, numbered densely in
	// first-use order so that water-filling scans a handful of entries
	// however many links the graph has.
	trunks []trunk

	// Indexed by LinkID, sized to the graph once. Both are all-zero between
	// queries: every port is released by its flow's finish event, and
	// trunkOf is reset through trunks — the links this query touched —
	// rather than by clearing the table (NoC graphs have many links).
	portBusy []bool
	trunkOf  []int32 // shared link -> 1 + its index in trunks; 0 = unseen

	// The fluid flows currently draining, in activation order.
	active []activeFlow
	unf    []int32 // water-filling scratch: positions in active not yet frozen

	// The ready queue and the fluid set above drain to empty by the time
	// every flow is done, so they need no reset between queries.
	q       eventQueue
	readyQ  []int32
	seq     uint64
	now     float64
	record  bool
	events  []Event
	byClass [numClasses]int64
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified: callers overwrite them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// schedule queues flow fl's next event, superseding its pending one.
func (a *simArena) schedule(t float64, k eventKind, fl int32) {
	a.seq++
	a.q.schedule(event{t: t, seq: a.seq, kind: k, flow: fl})
}

func (a *simArena) logEvent(kind string, fl int32) {
	if a.record {
		p := &a.plan
		a.events = append(a.events, Event{
			T: a.now, Kind: kind, Src: int(p.src[fl]), Dst: int(p.dst[fl]),
			Bytes: p.bytes[fl], Class: a.flows[fl].class,
		})
	}
}

// build routes every flow of the plan over g and fills the flow, trunk
// and dependents tables.
func (a *simArena) build(g *topology.Graph, ct *classTable) {
	p := &a.plan
	n := p.len()
	if len(a.portBusy) < len(g.Links) {
		a.portBusy = make([]bool, len(g.Links))
		a.trunkOf = make([]int32, len(g.Links))
	}
	a.flows = resize(a.flows, n)
	a.ports, a.trunkRefs, a.trunks = a.ports[:0], a.trunkRefs[:0], a.trunks[:0]
	a.byClass = [numClasses]int64{}
	for i := 0; i < n; i++ {
		src, dst := int(p.src[i]), int(p.dst[i])
		class := g.M.Classify(src, dst)
		if p.bytes[i] > 0 {
			a.byClass[class] += p.bytes[i]
		}
		f := simFlow{
			cap: ct.cap[class], latency: ct.latency[class], class: class,
			ports:  span{lo: int32(len(a.ports))},
			trunks: span{lo: int32(len(a.trunkRefs))},
			ndeps:  p.depOff[i+1] - p.depOff[i],
		}
		a.route = g.Route(src, dst, a.route[:0])
		for _, id := range a.route {
			l := g.Link(id)
			if !l.Shared {
				a.ports = append(a.ports, id)
				continue
			}
			if a.trunkOf[id] == 0 {
				c := l.Bandwidth / ct.derate[l.Class]
				a.trunks = append(a.trunks, trunk{link: id, cap: c, eps: c * 1e-12})
				a.trunkOf[id] = int32(len(a.trunks))
			}
			a.trunkRefs = append(a.trunkRefs, a.trunkOf[id]-1)
			f.latency += l.Latency
		}
		f.ports.hi = int32(len(a.ports))
		f.trunks.hi = int32(len(a.trunkRefs))
		a.flows[i] = f
	}

	// dependents is the transpose of the plan's deps, each flow's list in
	// ascending flow order (a counting sort) — the order flows are
	// released in.
	for _, d := range p.deps {
		a.flows[d].deps.hi++ // count, for now
	}
	var at int32
	for i := range a.flows {
		f := &a.flows[i]
		f.deps, at = span{at, at}, at+f.deps.hi
	}
	a.dependents = resize(a.dependents, len(p.deps))
	for i := 0; i < n; i++ {
		for _, d := range p.deps[p.depOff[i]:p.depOff[i+1]] {
			f := &a.flows[d]
			a.dependents[f.deps.hi] = int32(i)
			f.deps.hi++
		}
	}
}

// grant scans the ready queue in release order and starts every flow
// whose ports are all free. Single pass: ports are only freed by finish
// events, never by a grant.
func (a *simArena) grant() {
	out := a.readyQ[:0]
	for _, fl := range a.readyQ {
		f := &a.flows[fl]
		ports := a.ports[f.ports.lo:f.ports.hi]
		free := true
		for _, p := range ports {
			if a.portBusy[p] {
				free = false
				break
			}
		}
		if !free {
			out = append(out, fl)
			continue
		}
		for _, p := range ports {
			a.portBusy[p] = true
		}
		a.logEvent("start", fl)
		a.schedule(a.now+f.latency, evActivate, fl)
	}
	a.readyQ = out
}

// recompute runs progressive water-filling over the fluid flows: all
// rates rise together until a flow hits its class cap or a trunk
// saturates; saturated parties freeze and filling continues. Flows
// whose rate changed get their remaining bytes settled at the old rate
// and a rescheduled finish. Flows without trunks never enter here, so
// their port-exclusive timing stays bit-exact.
func (a *simArena) recompute() {
	act := a.active
	if len(act) == 0 {
		return
	}
	for t := range a.trunks {
		tr := &a.trunks[t]
		tr.rem, tr.cnt = tr.cap, tr.n
	}
	unf := resize(a.unf, len(act))
	a.unf = unf
	minCap := math.Inf(1)
	for k := range unf {
		unf[k] = int32(k)
		if c := act[k].cap; c < minCap {
			minCap = c
		}
	}
	// Unfrozen flows have all been raised from zero by the same increments
	// in the same order, so one running sum is the rate of every one of
	// them, and the smallest headroom cap-level among them is minCap-level
	// (rounding is monotonic).
	level := 0.0
	for len(unf) > 0 {
		inc := minCap - level
		for t := range a.trunks {
			if tr := &a.trunks[t]; tr.cnt > 0 {
				if s := tr.rem / float64(tr.cnt); s < inc {
					inc = s
				}
			}
		}
		if inc < 0 || math.IsInf(inc, 1) {
			inc = 0
		}
		level += inc
		for t := range a.trunks {
			tr := &a.trunks[t]
			tr.rem -= inc * float64(tr.cnt)
			tr.sat = tr.rem <= tr.eps
		}
		left := unf[:0]
		minCap = math.Inf(1)
		for _, k := range unf {
			f := &act[k]
			refs := a.trunkRefs[f.trunks.lo:f.trunks.hi]
			stop := level >= f.stop
			if !stop {
				for _, t := range refs {
					if a.trunks[t].sat {
						stop = true
						break
					}
				}
			}
			if !stop {
				left = append(left, k)
				if f.cap < minCap {
					minCap = f.cap
				}
				continue
			}
			f.fill = level
			for _, t := range refs {
				a.trunks[t].cnt--
			}
		}
		if len(left) == len(unf) {
			break
		}
		unf = left
	}
	for _, k := range unf { // filling stalled with these still unfrozen
		act[k].fill = level
	}
	for k := range act {
		f := &act[k]
		r := f.fill
		if r <= 0 {
			// Numerical corner: never stall a flow entirely.
			r = f.cap * 1e-9
		}
		if r != f.rate {
			f.remaining -= f.rate * (a.now - f.lastT)
			if f.remaining < 0 {
				f.remaining = 0
			}
			f.lastT = a.now
			f.rate = r
			a.schedule(a.now+f.remaining/r, evFinish, f.flow)
		}
	}
}

// activate appends flow fl, about to move bytes, to the fluid set at rate 0.
func (a *simArena) activate(fl int32, bytes int64) {
	f := &a.flows[fl]
	a.active = append(a.active, activeFlow{
		flow: fl, trunks: f.trunks, cap: f.cap, stop: f.cap * (1 - 1e-12),
		remaining: float64(bytes), lastT: a.now,
	})
	for _, t := range a.trunkRefs[f.trunks.lo:f.trunks.hi] {
		a.trunks[t].n++
	}
}

// deactivate removes flow fl from the fluid set, keeping activation order.
func (a *simArena) deactivate(fl int32) {
	for k := range a.active {
		if a.active[k].flow == fl {
			a.active = append(a.active[:k], a.active[k+1:]...)
			break
		}
	}
	f := &a.flows[fl]
	for _, t := range a.trunkRefs[f.trunks.lo:f.trunks.hi] {
		a.trunks[t].n--
	}
}

// simulate runs the arena's plan — one collective's flow DAG — to
// completion over g and returns its makespan, leaving the per-class byte
// totals in a.byClass and, when record is set, the event log in a.events.
func (a *simArena) simulate(g *topology.Graph, ct *classTable, name string, nranks int, record bool) float64 {
	n := a.plan.len()
	a.record = record
	a.events = a.events[:0]
	a.build(g, ct)
	a.seq, a.now = 0, 0
	a.q.reset(n)

	for i := range a.flows {
		if a.flows[i].ndeps == 0 {
			a.readyQ = append(a.readyQ, int32(i))
		}
	}
	a.grant()

	makespan, done := 0.0, 0
	for a.q.len() > 0 {
		ev := a.q.pop()
		a.now = ev.t
		f := &a.flows[ev.flow]
		bytes := a.plan.bytes[ev.flow]
		fluid := f.trunks.hi > f.trunks.lo && bytes != 0
		switch ev.kind {
		case evActivate:
			if fluid {
				a.activate(ev.flow, bytes)
				a.recompute()
				break
			}
			t := a.now
			if bytes > 0 {
				t = a.now + float64(bytes)/f.cap
			}
			a.schedule(t, evFinish, ev.flow)
		case evFinish:
			done++
			if a.now > makespan {
				makespan = a.now
			}
			a.logEvent("finish", ev.flow)
			for _, p := range a.ports[f.ports.lo:f.ports.hi] {
				a.portBusy[p] = false
			}
			if fluid {
				a.deactivate(ev.flow)
			}
			for _, d := range a.dependents[f.deps.lo:f.deps.hi] {
				df := &a.flows[d]
				df.ndeps--
				if df.ndeps == 0 {
					a.readyQ = append(a.readyQ, d)
				}
			}
			a.grant()
			if fluid {
				a.recompute()
			}
		}
	}
	if done != n {
		panic(fmt.Sprintf("devent: %s over %d ranks deadlocked with %d/%d flows done",
			name, nranks, done, n))
	}
	for _, tr := range a.trunks {
		a.trunkOf[tr.link] = 0
	}
	return makespan
}
