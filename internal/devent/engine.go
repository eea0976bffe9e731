// Package devent is the discrete-event ("honest") communication engine of
// the two-mode simulation core. Where internal/netsim costs each collective
// with closed-form α–β aggregates, devent lowers it into point-to-point
// transfer flows (internal/devent/decompose.go), routes each flow over an
// explicit topology.Graph, and schedules the flows on a simulated clock:
// per-rank ports serialise exclusively, shared trunks (node NICs, rack
// spines, NoC crossbars) are divided among concurrent flows by max-min
// fair sharing (progressive water-filling), and dependency edges gate ring
// steps and tree rounds. Contention between concurrent collectives and
// queueing on oversubscribed trunks therefore emerge from the schedule —
// the effects the analytic model folds away.
//
// The engine implements netsim.CostEngine, so simrt Clusters run against
// either mode unchanged. Cross-validation contract (pinned by the tests in
// this package): on a contention-free flat graph the event engine
// reproduces the analytic model's BytesByClass integer-exactly and its
// per-collective Seconds to within 1 picosecond (float summation order is
// the only difference) for the even/uniform layouts where the analytic
// ring identities are themselves exact. On hierarchical graphs the two
// modes diverge honestly, and that delta is the measurement.
package devent

import (
	"math"
	"sync"

	"xmoe/internal/netsim"
	"xmoe/internal/topology"
)

// Event is one entry of a collective's simulated schedule, exposed for the
// determinism tests and debugging: identical inputs must yield bit-identical
// event logs.
type Event struct {
	T     float64 // simulated time of the event
	Kind  string  // "start" (ports granted) or "finish" (last byte drained)
	Src   int
	Dst   int
	Bytes int64
	Class topology.LinkClass
}

// CollectiveLog is the full schedule of one simulated collective.
type CollectiveLog struct {
	Kind    string // "alltoallv", "allreduce", ...
	Ranks   []int
	Seconds float64
	Events  []Event
}

// Engine simulates collectives event-by-event over a topology graph. It is
// safe for concurrent use by the simulated ranks. Every cost query that
// misses the memo runs an isolated simulation inside a simArena it owns
// for the duration of the query: one arena per in-flight query, taken from
// and returned to the engine's free list, so concurrent queries (RBD's
// node groups) never share link or flow state and results are independent
// of query order — the property the memo cache and the determinism tests
// rely on. Nothing handed to a caller aliases arena memory: a Cost's
// BytesByClass map is built fresh per miss (and then shared by every hit,
// so callers must treat it as immutable, as netsim.Network documents), and
// a CollectiveLog's Events and Ranks are copies.
type Engine struct {
	G *topology.Graph

	mu       sync.Mutex
	derate   [numClasses]float64 // per link class, 1 = healthy
	cache    map[uint64]netsim.Cost
	recorder func(CollectiveLog)
	free     []*simArena // idle arenas; grown on demand, never shrunk
}

// numClasses is the size of the tables indexed by topology.LinkClass.
const numClasses = int(topology.LinkCrossRack) + 1

// New returns an event engine over graph g.
func New(g *topology.Graph) *Engine {
	e := &Engine{G: g, cache: make(map[uint64]netsim.Cost)}
	e.SetLinkDerate(nil)
	return e
}

// EngineName identifies the engine and its graph in traces and benchmark
// records (e.g. "event:rail").
func (e *Engine) EngineName() string { return "event:" + e.G.Name }

// SetLinkDerate applies degraded-link bandwidth derates (same contract as
// netsim.Network.SetLinkDerate: factors > 1 divide the effective bandwidth of
// that class, latencies and byte accounting unaffected). Set it only
// between Cluster.Run calls; derates are folded into memo keys, so stale
// cached times are never served.
func (e *Engine) SetLinkDerate(d map[topology.LinkClass]float64) {
	var t [numClasses]float64
	for c := range t {
		t[c] = 1
		if v, ok := d[topology.LinkClass(c)]; ok && v > 1 {
			t[c] = v
		}
	}
	e.mu.Lock()
	e.derate = t
	e.mu.Unlock()
}

// SetRecorder installs a callback receiving every simulated collective's
// event log. While a recorder is installed the memo cache is bypassed, so
// repeated collectives are re-simulated and logged each time.
func (e *Engine) SetRecorder(f func(CollectiveLog)) {
	e.mu.Lock()
	e.recorder = f
	e.mu.Unlock()
}

const cacheBound = 1 << 16

func mix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

// costOf memoizes a collective's simulated cost. The key is hashed from
// the arguments alone — payload mixes the byte-size arguments in — and the
// memo is consulted before anything is lowered: a hit never calls lower,
// never takes an arena and allocates nothing. On a miss lower fills the
// arena's plan, which simulate then runs.
func (e *Engine) costOf(kind uint64, name string, ranks []int, payload func(uint64) uint64, lower func(*plan)) netsim.Cost {
	e.mu.Lock()
	derate, rec := e.derate, e.recorder
	e.mu.Unlock()
	var h uint64
	if rec == nil {
		h = mix(14695981039346656037, kind)
		for _, d := range derate {
			h = mix(h, math.Float64bits(d))
		}
		h = mix(h, uint64(len(ranks)))
		for _, r := range ranks {
			h = mix(h, uint64(r))
		}
		h = payload(h)
	}

	e.mu.Lock()
	if rec == nil {
		if c, ok := e.cache[h]; ok {
			e.mu.Unlock()
			return c
		}
	}
	var a *simArena
	if n := len(e.free); n > 0 {
		a, e.free = e.free[n-1], e.free[:n-1]
	} else {
		a = new(simArena)
	}
	e.mu.Unlock()

	a.plan.reset()
	lower(&a.plan)
	ct := classesOf(e.G.M, &derate)
	seconds := a.simulate(e.G, &ct, name, len(ranks), rec != nil)
	cost := netsim.Cost{Seconds: seconds, BytesByClass: make(map[topology.LinkClass]int64, numClasses)}
	for c, b := range a.byClass {
		if b > 0 {
			cost.BytesByClass[topology.LinkClass(c)] = b
		}
	}
	var log CollectiveLog
	if rec != nil {
		log = CollectiveLog{
			Kind: name, Ranks: append([]int(nil), ranks...), Seconds: seconds,
			Events: append([]Event(nil), a.events...),
		}
	}

	e.mu.Lock()
	if rec == nil {
		if len(e.cache) >= cacheBound {
			e.cache = make(map[uint64]netsim.Cost, 256)
		}
		e.cache[h] = cost
	}
	e.free = append(e.free, a)
	e.mu.Unlock()
	if rec != nil {
		rec(log)
	}
	return cost
}
