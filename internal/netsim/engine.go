package netsim

import "xmoe/internal/topology"

// CostEngine is the pluggable collective-cost interface simrt Clusters run
// against. Two implementations exist: *Network (this package) is the
// memoized analytic fast path, and devent.Engine is the event-driven
// honest path that schedules link-level transfers over a topology graph.
// On contention-free flat topologies the two agree (cross-validated by
// internal/devent's invariant tests); on hierarchical graphs the event
// engine additionally sees trunk contention and queueing.
//
// Implementations must be safe for concurrent use: a simrt cluster prices
// its non-blocking collectives concurrently and in no fixed order, unless
// the engine has an OrderDependent() bool method that reports true (a
// decorator must forward it), as Network's does while it samples
// congestion.
type CostEngine interface {
	AlltoAllV(ranks []int, sendBytes [][]int64) Cost
	AllReduce(ranks []int, bytes int64) Cost
	AllGather(ranks []int, perRankBytes []int64) Cost
	ReduceScatter(ranks []int, bytes int64) Cost
	Broadcast(ranks []int, bytes int64) Cost
	Barrier(ranks []int) Cost
	// EngineName identifies the engine in traces and benchmark records
	// ("analytic", "event:flat", "event:rail", ...).
	EngineName() string
	// SetLinkDerate applies degraded-link bandwidth derates (factors > 1
	// divide effective bandwidth; latencies and byte accounting are
	// unaffected). Call only between Cluster.Run calls.
	SetLinkDerate(map[topology.LinkClass]float64)
}

// OrderDependent reports whether the network's answers depend on the order
// of its queries: they do while it samples congestion outliers, which are
// drawn from one RNG stream in query order.
func (n *Network) OrderDependent() bool { return !n.deterministic() }

// EngineName identifies the analytic model in traces and benchmark records.
func (n *Network) EngineName() string { return "analytic" }

// SetLinkDerate implements CostEngine by setting the linkDerate field,
// with the same contract: set only while no collectives are in flight.
func (n *Network) SetLinkDerate(d map[topology.LinkClass]float64) { n.linkDerate = d }

var _ CostEngine = (*Network)(nil)
