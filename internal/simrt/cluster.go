// Package simrt is the simulated distributed runtime the X-MoE
// reproduction executes on. It replaces the GPU cluster the paper used
// (Frontier nodes running one training process per GCD) with one goroutine
// per rank inside a single address space:
//
//   - Collectives move real payloads between rank goroutines through a
//     rendezvous, so correctness properties (dispatch/combine equivalence,
//     RBD reconstruction) are testable end to end.
//   - Every rank carries a virtual clock. Compute ops advance it by times
//     from internal/perfmodel. Every collective is one flight on its
//     members' comm streams, starting at the latest member's max(entry
//     clock, end of its previous flight) and lasting one cost from the
//     cluster's CostEngine; a blocking collective is that flight waited at
//     issue, a non-blocking one returns a CommHandle that charges only what
//     compute did not cover, and is priced on a goroutine of its own.
//   - Every rank carries a memory tracker; pipelines register their buffer
//     allocations so per-device peak memory and OOM verdicts reproduce the
//     paper's trainability results.
package simrt

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"xmoe/internal/netsim"
	"xmoe/internal/perfmodel"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
	"xmoe/internal/trace"
)

// MemTracker accounts simulated device memory for one rank. All sizes are
// bytes. It is safe for concurrent use.
type MemTracker struct {
	mu    sync.Mutex
	cur   int64
	peak  int64
	byTag map[string]tagBytes
}

// tagBytes is one tag's live bytes and their high-water mark.
type tagBytes struct{ live, peak int64 }

// Alloc records an allocation of n bytes under the given tag.
func (m *MemTracker) Alloc(tag string, n int64) {
	if n < 0 {
		panic(fmt.Sprintf("simrt: negative allocation %d (%s)", n, tag))
	}
	m.mu.Lock()
	if m.byTag == nil {
		m.byTag = map[string]tagBytes{}
	}
	m.cur += n
	m.peak = max(m.peak, m.cur)
	b := m.byTag[tag]
	b.live += n
	b.peak = max(b.peak, b.live)
	m.byTag[tag] = b
	m.mu.Unlock()
}

// Free records a release of n bytes under the given tag.
func (m *MemTracker) Free(tag string, n int64) {
	m.mu.Lock()
	m.cur -= n
	if m.byTag != nil {
		b := m.byTag[tag]
		b.live -= n
		m.byTag[tag] = b
	}
	m.mu.Unlock()
}

// Current returns the live allocation in bytes.
func (m *MemTracker) Current() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur
}

// Peak returns the high-water mark in bytes.
func (m *MemTracker) Peak() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// ByTag returns a copy of the live allocation per tag.
func (m *MemTracker) ByTag() map[string]int64 {
	return m.tags(func(b tagBytes) int64 { return b.live })
}

// PeakByTag returns each tag's high-water mark: the most bytes live under
// it at once.
func (m *MemTracker) PeakByTag() map[string]int64 {
	return m.tags(func(b tagBytes) int64 { return b.peak })
}

func (m *MemTracker) tags(field func(tagBytes) int64) map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.byTag))
	for k, b := range m.byTag {
		out[k] = field(b)
	}
	return out
}

// Device is the simulated GPU attached to one rank.
type Device struct {
	// Mem tracks simulated HBM usage.
	Mem MemTracker
	// Profile describes the device's capability.
	Profile topology.DeviceProfile
	// pool is the rank-local tensor arena: numeric pipelines draw their
	// steady-state intermediates from it instead of allocating fresh
	// buffers every layer. It persists across Cluster.Run invocations,
	// mirroring a framework's reusable device workspace.
	pool tensor.Pool
}

// OOM reports whether the device's peak allocation exceeded its capacity.
func (d *Device) OOM() bool { return d.Mem.Peak() > d.Profile.MemBytes }

// Cluster is a simulated machine partition: NumRanks ranks laid out on the
// machine topology, sharing a network simulator and a compute model.
type Cluster struct {
	Machine *topology.Machine
	Net     *netsim.Network
	// Engine, when non-nil, replaces the analytic Net as the collective
	// cost model: every collective charges CostEngine() instead of Net
	// directly. Plug in a devent.Engine to run the cluster on the
	// event-driven honest path (link-level transfers with trunk
	// contention); leave nil for the memoized analytic fast path. Set it
	// before the first Run and never while ranks are in flight.
	Engine   netsim.CostEngine
	Comp     *perfmodel.Model
	NumRanks int
	// DisablePools turns off the per-rank tensor arenas: Rank.Pool
	// returns nil and pipelines fall back to allocate-fresh buffers.
	// The determinism regression tests use this to compare pooled and
	// fresh execution bit for bit.
	DisablePools bool
	// Inject, when non-nil, is consulted by every rank at each compute
	// span and collective entry to apply deterministic faults: straggler
	// compute scaling, flaky-collective retry delays, and crashes (see
	// internal/fault for the seeded plan that implements it).
	Inject  Injector
	devices []*Device
	// pricing counts the goroutines pricing non-blocking collectives; Run
	// returns only once they have all finished.
	pricing sync.WaitGroup

	// failMu guards the failure registry and the group list. failed maps
	// a rank that went down in the current Run to its error; groups
	// lists every communicator ever created on this cluster so failRank
	// can abort their rendezvous.
	failMu sync.Mutex
	failed map[int]error
	groups []*Group
}

// NewCluster creates a cluster of n ranks on machine m, seeding the
// network simulator's congestion sampler with seed.
func NewCluster(m *topology.Machine, n int, seed uint64) *Cluster {
	devs := make([]*Device, n)
	for i := range devs {
		devs[i] = &Device{Profile: m.Device}
	}
	net := netsim.New(m, seed)
	net.JobRanks = n
	return &Cluster{
		Machine:  m,
		Net:      net,
		Comp:     perfmodel.ForDevice(m.Device),
		NumRanks: n,
		devices:  devs,
	}
}

// Device returns the device of global rank r.
func (c *Cluster) Device(r int) *Device { return c.devices[r] }

// CostEngine returns the collective cost model the cluster charges: the
// pluggable Engine when one is installed, else the analytic Net. Existing
// tests that predict expected times via c.Net stay exact because a nil
// Engine falls through to the same model.
func (c *Cluster) CostEngine() netsim.CostEngine {
	if c.Engine != nil {
		return c.Engine
	}
	return c.Net
}

// pricesInOrder reports whether every collective must be priced at its
// rendezvous, in each group's issue order: when the cost engine states
// that its answers depend on the order of its queries.
func (c *Cluster) pricesInOrder() bool {
	e, ok := c.CostEngine().(interface{ OrderDependent() bool })
	return ok && e.OrderDependent()
}

// EngineName identifies the active cost engine ("analytic", "event:rail",
// ...) for traces and benchmark records.
func (c *Cluster) EngineName() string { return c.CostEngine().EngineName() }

// SetLinkDerate applies degraded-link bandwidth derates to every cost
// model attached to the cluster (the analytic Net and, when installed, the
// pluggable Engine), so fault-injected link degradation behaves the same
// under both engines. Call only between Run invocations.
func (c *Cluster) SetLinkDerate(d map[topology.LinkClass]float64) {
	c.Net.SetLinkDerate(d)
	if c.Engine != nil {
		c.Engine.SetLinkDerate(d)
	}
}

// Rank is the per-goroutine execution context handed to the SPMD body.
type Rank struct {
	// ID is the global rank index in [0, NumRanks).
	ID int
	// C is the owning cluster.
	C *Cluster
	// Clock is the rank's virtual time in seconds.
	Clock float64
	// Busy is the cumulative compute time this rank spent, excluding
	// collective waits. Unlike Clock — which every blocking collective
	// synchronises to the group's flight end — Busy keeps per-rank
	// skew visible, so harnesses can observe which ranks are slow
	// (straggler scaling multiplies compute durations).
	Busy float64
	// Trace records per-stage durations on this rank.
	Trace *trace.Recorder
	// stream is the last flight this rank issued. The rank's comm stream
	// runs its flights one at a time in issue order (as on a dedicated
	// NCCL/RCCL stream), so the next one starts no earlier than this one
	// ends. Only the owning goroutine touches it; peers see it through the
	// deposit of each rendezvous.
	stream *flight
	// issuedHandles records every async collective handle this rank
	// issued; Run checks at teardown that each was waited (a dropped
	// handle is a lost synchronisation and almost always a bug).
	issuedHandles []*CommHandle
}

// Dev returns this rank's device.
func (r *Rank) Dev() *Device { return r.C.devices[r.ID] }

// Pool returns this rank's tensor arena (nil when the cluster disables
// pooling; a nil pool safely degrades to allocate-fresh). What this rank
// Puts back must be done with on every rank, so a pipeline Puts its
// rank-local buffers, and a buffer sent as views only when a later
// rendezvous of the call shows every peer is done with it. A payload
// that crosses an exchange to be read after it is lent instead (Lend):
// its receivers' releases return it here, from whichever rank drops the
// last view.
func (r *Rank) Pool() *tensor.Pool {
	if r.C.DisablePools {
		return nil
	}
	return &r.C.devices[r.ID].pool
}

// Compute advances the rank's clock by dur seconds, recording the span
// under name. When fault injection is active, a pending crash fires at
// the span's entry and straggler ranks see their durations scaled by the
// injector's compute multiplier.
func (r *Rank) Compute(name string, dur float64) {
	if dur < 0 {
		panic(fmt.Sprintf("simrt: negative compute duration %g (%s)", dur, name))
	}
	if inj := r.C.Inject; inj != nil {
		if err := inj.CrashError(r.ID, r.Clock); err != nil {
			r.fail(fmt.Errorf("rank %d at %.6fs in %s: %w", r.ID, r.Clock, name, err))
		}
		if s := inj.ComputeScale(r.ID); s > 0 && s != 1 {
			dur *= s
		}
	}
	r.Trace.Record(name, r.Clock, dur)
	r.Clock += dur
	r.Busy += dur
}

// Run executes fn once per rank, each on its own goroutine, and waits for
// all to finish. It returns the combined error of all failing ranks and
// always returns: a rank that panics, crashes (injected fault), or
// returns an error is marked gone on every group it belongs to, so peers
// parked at (or later issuing) collectives with it unwind with a typed
// ErrPeerFailed instead of deadlocking. A rank that returns with
// issued-but-never-waited async collective handles is reported as an
// error too: a dropped CommHandle is a lost synchronisation. Run returns
// only after every collective its ranks issued has been priced. After a
// failed Run the cluster is poisoned (rank collective counters are
// desynchronised); rebuild it rather than calling Run again. After a
// clean Run the cluster is reusable as before.
func (c *Cluster) Run(fn func(r *Rank) error) error {
	c.resetFailures()
	errs := make([]error, c.NumRanks)
	var wg sync.WaitGroup
	for i := 0; i < c.NumRanks; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					switch p := p.(type) {
					case abortPanic:
						errs[id] = p.err
					case error:
						// Wrapped, so a typed error (a *moe.OptionError from
						// a pipeline's option check) survives errors.As.
						errs[id] = fmt.Errorf("rank %d panicked: %w", id, p)
					default:
						errs[id] = fmt.Errorf("rank %d panicked: %v", id, p)
					}
				}
				if errs[id] != nil {
					c.failRank(id, errs[id])
				} else {
					c.rankDone(id)
				}
			}()
			rank := &Rank{ID: id, C: c, Trace: &trace.Recorder{}}
			// Stamp the active cost engine on every trace so recorded
			// spans are attributable to analytic vs event mode (marks
			// never pollute breakdowns).
			rank.Trace.Mark("engine:"+c.EngineName(), 0)
			errs[id] = fn(rank)
			if errs[id] == nil {
				if leaked := rank.leakedHandles(); len(leaked) > 0 {
					errs[id] = fmt.Errorf("rank %d finished with %d unwaited async collective handle(s): %v",
						id, len(leaked), leaked)
				}
			}
		}(i)
	}
	wg.Wait()
	c.pricing.Wait()
	var nonNil []error
	for _, e := range errs {
		if e != nil {
			nonNil = append(nonNil, e)
		}
	}
	return errors.Join(nonNil...)
}

// RunCollect executes fn once per rank like Run but also returns each
// rank's final context (clock and trace) for harness-side aggregation.
func (c *Cluster) RunCollect(fn func(r *Rank) error) ([]*Rank, error) {
	ranks := make([]*Rank, c.NumRanks)
	err := c.Run(func(r *Rank) error {
		ranks[r.ID] = r
		return fn(r)
	})
	return ranks, err
}

// MaxClock returns the largest clock among ranks — the simulated
// wall-clock time of the SPMD program.
func MaxClock(ranks []*Rank) float64 {
	var m float64
	for _, r := range ranks {
		if r != nil && r.Clock > m {
			m = r.Clock
		}
	}
	return m
}

// BusyTimes returns every rank's cumulative compute time by rank ID
// (0 for ranks that never started). These are the per-rank observed
// times the straggler-aware capacity rebalance feeds on: final Clocks
// are useless for that — blocking collectives equalise them — but Busy
// keeps the skew, so an injected straggler shows up as a slot whose
// compute time exceeds the rest.
func BusyTimes(ranks []*Rank) []float64 {
	out := make([]float64, len(ranks))
	for i, r := range ranks {
		if r != nil {
			out[i] = r.Busy
		}
	}
	return out
}

// PeakMemory returns the maximum per-device peak across the cluster,
// matching the paper's "maximum memory usage across all ranks" metric.
func (c *Cluster) PeakMemory() int64 {
	var m int64
	for _, d := range c.devices {
		if p := d.Mem.Peak(); p > m {
			m = p
		}
	}
	return m
}

// AnyOOM reports whether any device exceeded its memory capacity.
func (c *Cluster) AnyOOM() bool {
	for _, d := range c.devices {
		if d.OOM() {
			return true
		}
	}
	return false
}

// NewGroup creates a communicator over the given global ranks (order is
// normalised to ascending). The same *Group value must be shared by all
// member ranks.
func (c *Cluster) NewGroup(ranks []int) *Group {
	rs := make([]int, len(ranks))
	copy(rs, ranks)
	sort.Ints(rs)
	idx := make(map[int]int, len(rs))
	for i, r := range rs {
		if r < 0 || r >= c.NumRanks {
			panic(fmt.Sprintf("simrt: rank %d outside cluster of %d", r, c.NumRanks))
		}
		if _, dup := idx[r]; dup {
			panic(fmt.Sprintf("simrt: duplicate rank %d in group", r))
		}
		idx[r] = i
	}
	g := &Group{
		c:       c,
		ranks:   rs,
		index:   idx,
		counter: make([]uint64, len(rs)),
		gone:    make([]error, len(rs)),
		goneAt:  make([]uint64, len(rs)),
		pending: map[uint64]*rendezvous{},
	}
	c.registerGroup(g)
	return g
}

// WorldGroup returns a communicator over all ranks.
func (c *Cluster) WorldGroup() *Group {
	all := make([]int, c.NumRanks)
	for i := range all {
		all[i] = i
	}
	return c.NewGroup(all)
}
