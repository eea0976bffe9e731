package simrt

import (
	"fmt"
	"sync"
)

// Every collective is one flight on its members' comm streams (one
// in-order stream per rank, as on a dedicated NCCL/RCCL stream):
//
//	start = max over members of max(entry clock, end of its previous flight)
//	end   = start + cost of the active CostEngine
//
// and ends one of two ways. A blocking collective is the flight waited at
// once: the rank's clock becomes end, charged as one span from the issue
// clock, so it also waits whatever the rank's earlier non-blocking
// collectives still had in flight. A non-blocking one hands the flight to
// a CommHandle, whose Wait charges only the part of it the rank did not
// cover with compute since issuing. That is the overlap model behind the
// chunked MoE pipelines and the bucketed ZeRO gradient sync (FastMoE's
// smart scheduling, Megatron Core's MoE comm/compute overlap and bucketed
// DDP).
//
// A flight is priced once, after every member has deposited, and its start
// and end are resolved when first read. A non-blocking flight is priced on
// a goroutine of its own while its members run on, so the event engine's
// queries for a pipeline's chunks run concurrently — unless the cost
// engine's answers depend on the order of its queries. The float
// expressions and member order are those of pricing at the rendezvous, so
// no simulated bit depends on where or when the price is computed.

// Part is one rank's contribution to (or share of) a collective payload.
// Data carries real numbers in numeric mode and is nil in symbolic mode;
// Meta carries routing metadata (e.g. ERI-array segments) that travels
// with the payload; Bytes is the modeled wire size and must always be set
// (it is what the network simulator charges).
type Part struct {
	Data  []float32
	Meta  any
	Bytes int64
}

// deposit is one member's contribution to a collective rendezvous.
type deposit struct {
	// send is an all-to-all-v's destination-indexed parts.
	send []Part
	// part is the member's payload of a reduction or all-gather.
	part Part
	// lent is the loan the deposit's data parts view, if any (lend.go).
	lent *Loan
	// clock is the member's clock at entry and prev the flight it issued
	// before this one (nil for its first): its comm stream starts this
	// flight no earlier than either.
	clock float64
	prev  *flight
}

// flight is one collective on its members' comm streams, embedded in the
// rendezvous they meet at. The last member to deposit prices it — the
// modeled seconds and what each member receives — and the first read
// resolves its start and end from the deposits.
type flight struct {
	mu   sync.Mutex
	cond sync.Cond
	name string
	deps []deposit

	priced  bool
	err     error // the pricer panicked
	seconds float64
	// recv[m] is what member m receives (nil for a barrier).
	recv [][]Part
	// lent[m] is the loan member m's deposit named (nil when none did):
	// what the receivers' releases drop views of.
	lent []*Loan

	resolved   bool
	start, end float64
}

// pricer prices one collective kind once every member has deposited: the
// modeled seconds on the cluster's cost engine and what each member
// receives.
type pricer func(g *Group, deps []deposit) (seconds float64, recv [][]Part)

// price runs the pricer over the deposits and publishes its result. A
// panicking pricer fails the flight instead of unwinding: every member
// fails at its next read of the flight.
func (f *flight) price(g *Group, price pricer) {
	var secs float64
	var recv [][]Part
	defer func() {
		p := recover()
		f.mu.Lock()
		f.seconds, f.recv, f.priced = secs, recv, true
		if p != nil {
			f.err = fmt.Errorf("%s pricing panicked: %v: %w", f.name, p, ErrPeerFailed)
		}
		f.cond.Broadcast()
		f.mu.Unlock()
	}()
	secs, recv = price(g, f.deps)
}

// times returns when the flight occupies its members' comm streams. The
// first call waits for the price and resolves start, member by member in
// member order, and end = start + seconds; it then drops the deposits, so
// a comm stream holds no chain of finished flights. It fails when the
// flight, or a flight it queues behind, could not be priced.
func (f *flight) times() (start, end float64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.priced {
		f.cond.Wait()
	}
	if !f.resolved && f.err == nil {
		for _, d := range f.deps {
			var busy float64
			if d.prev != nil {
				if _, busy, f.err = d.prev.times(); f.err != nil {
					return 0, 0, f.err
				}
			}
			f.start = max(f.start, max(d.clock, busy))
		}
		f.end = f.start + f.seconds
		f.resolved, f.deps = true, nil
	}
	return f.start, f.end, f.err
}

// parts is what member m received. Read it only after times.
func (f *flight) parts(m int) []Part {
	if f.recv == nil {
		return nil
	}
	return f.recv[m]
}

// await resolves fl for r, failing r's SPMD body when fl cannot be priced.
func (r *Rank) await(fl *flight, name string) (start, end float64) {
	start, end, err := fl.times()
	if err != nil {
		r.fail(fmt.Errorf("rank %d: %s aborted: %w", r.ID, name, err))
	}
	return start, end
}

// block is the blocking ending: the flight waited at once, charged to the
// clock as one span from the issue clock. It returns the flight and r's
// member index in it.
func (r *Rank) block(g *Group, name string, d deposit, price pricer) (*flight, int) {
	fl, m := g.fly(r, name, d, price, true)
	_, end := r.await(fl, name)
	r.Trace.Record(name, r.Clock, end-r.Clock)
	r.Clock = end
	return fl, m
}

// async is the non-blocking ending: the flight handed to a CommHandle the
// rank must Wait.
func (r *Rank) async(g *Group, name string, d deposit, price pricer) *CommHandle {
	fl, m := g.fly(r, name, d, price, false)
	h := &CommHandle{r: r, name: name, issuedAt: r.Clock, fl: fl, m: m}
	r.issuedHandles = append(r.issuedHandles, h)
	return h
}

// a2avDeposit checks that an all-to-all-v sends one part per member.
func a2avDeposit(g *Group, name string, send []Part) deposit {
	if len(send) != g.Size() {
		panic(fmt.Sprintf("simrt: %s send has %d parts for group of %d", name, len(send), g.Size()))
	}
	return deposit{send: send}
}

// priceA2AV transposes the members' sends — recv[dst][src] is what member
// src sent member dst — and prices their byte matrix. Row slices view two
// flat backing arrays: large groups would otherwise pay 2p allocations per
// collective, which dominates the symbolic sweeps at 256-1024 ranks.
func priceA2AV(g *Group, deps []deposit) (float64, [][]Part) {
	p := len(deps)
	bytes := make([][]int64, p)
	bytesFlat := make([]int64, p*p)
	recv := make([][]Part, p)
	recvFlat := make([]Part, p*p)
	for d := range recv {
		bytes[d] = bytesFlat[d*p : (d+1)*p]
		recv[d] = recvFlat[d*p : (d+1)*p]
	}
	for s, dep := range deps {
		for d, part := range dep.send {
			bytes[s][d] = part.Bytes
			recv[d][s] = part
		}
	}
	return g.c.CostEngine().AlltoAllV(g.ranks, bytes).Seconds, recv
}

// reduceSum is the member-order elementwise sum of the non-nil payloads
// and the largest per-rank byte size: the one reduction behind both
// all-reduce and reduce-scatter, so a reduce-scatter's shards concatenate
// to the all-reduce's sum bit for bit.
func reduceSum(deps []deposit) (sum []float32, maxBytes int64) {
	for _, dep := range deps {
		maxBytes = max(maxBytes, dep.part.Bytes)
		if dep.part.Data != nil {
			if sum == nil {
				sum = make([]float32, len(dep.part.Data))
			}
			for i, v := range dep.part.Data {
				sum[i] += v
			}
		}
	}
	return sum, maxBytes
}

// priceAllReduce gives every member the one shared sum.
func priceAllReduce(g *Group, deps []deposit) (float64, [][]Part) {
	sum, maxBytes := reduceSum(deps)
	all := []Part{{Data: sum, Bytes: maxBytes}}
	recv := make([][]Part, len(deps))
	for i := range recv {
		recv[i] = all
	}
	return g.c.CostEngine().AllReduce(g.ranks, maxBytes).Seconds, recv
}

// priceReduceScatter gives member i the ShardRange slice of the sum, and of
// the per-rank bytes with the remainder-to-leading-ranks convention
// netsim.ReduceScatter charges.
func priceReduceScatter(g *Group, deps []deposit) (float64, [][]Part) {
	sum, maxBytes := reduceSum(deps)
	p := len(deps)
	shards := make([]Part, p)
	recv := make([][]Part, p)
	for i := range shards {
		bLo, bHi := ShardRange(int(maxBytes), p, i)
		shards[i].Bytes = int64(bHi - bLo)
		if sum != nil {
			lo, hi := ShardRange(len(sum), p, i)
			shards[i].Data = sum[lo:hi]
		}
		recv[i] = shards[i : i+1]
	}
	return g.c.CostEngine().ReduceScatter(g.ranks, maxBytes).Seconds, recv
}

// priceAllGather gives every member the full member-indexed part list.
func priceAllGather(g *Group, deps []deposit) (float64, [][]Part) {
	p := len(deps)
	parts := make([]Part, p)
	bytes := make([]int64, p)
	recv := make([][]Part, p)
	for i, dep := range deps {
		parts[i] = dep.part
		bytes[i] = dep.part.Bytes
		recv[i] = parts
	}
	return g.c.CostEngine().AllGather(g.ranks, bytes).Seconds, recv
}

// AlltoAllV exchanges uneven per-destination parts among the group: send
// must have one Part per member (send[j] goes to member j, including
// self). It returns the parts this rank received, indexed by source
// member. The modeled time is charged to every member's clock; traffic is
// charged per link class by the cost engine.
func (r *Rank) AlltoAllV(g *Group, name string, send []Part) []Part {
	fl, m := r.block(g, name, a2avDeposit(g, "AlltoAllV", send), priceA2AV)
	return fl.parts(m)
}

// AllReduce sums each member's data elementwise (when non-nil) and charges
// the modeled ring-allreduce time for the given per-rank byte size. The
// returned slice is shared by all members and must not be mutated.
func (r *Rank) AllReduce(g *Group, name string, data []float32, bytes int64) []float32 {
	fl, m := r.block(g, name, deposit{part: Part{Data: data, Bytes: bytes}}, priceAllReduce)
	return fl.parts(m)[0].Data
}

// AllReduceAsync issues a non-blocking AllReduce; Wait yields one Part
// whose Data is the full sum (shared by all members — callers must copy,
// never mutate). data may be nil in symbolic mode and must not change
// until the handle is waited; bytes is the modeled per-rank payload.
func (r *Rank) AllReduceAsync(g *Group, name string, data []float32, bytes int64) *CommHandle {
	return r.async(g, name, deposit{part: Part{Data: data, Bytes: bytes}}, priceAllReduce)
}

// ReduceScatterAsync issues a non-blocking reduce-scatter: the group's
// deposits are summed elementwise (member order, bit-identical to
// AllReduce's sum) and member i receives the ShardRange(len, p, i) slice
// of the sum — the ZeRO-2 gradient-sharding primitive. The returned shard
// aliases the shared sum; callers must copy before mutating. data may be
// nil in symbolic mode and must not change until the handle is waited;
// bytes is the full (unsharded) per-rank payload.
func (r *Rank) ReduceScatterAsync(g *Group, name string, data []float32, bytes int64) *CommHandle {
	return r.async(g, name, deposit{part: Part{Data: data, Bytes: bytes}}, priceReduceScatter)
}

// AllGather gathers one part from every member; all members receive the
// full list indexed by member, which the returned Exchange holds already
// delivered. The parts are shared and must not be mutated. When part's
// data views lent (non-nil), every member's copy of it is one view of the
// loan, which each member drops with Release.
func (r *Rank) AllGather(g *Group, name string, part Part, lent *Loan) Exchange {
	if lent != nil && part.Data != nil {
		lent.views.Add(int64(g.Size()))
	}
	fl, m := r.block(g, name, deposit{part: part, lent: lent}, priceAllGather)
	return Exchange{fl: fl, m: m}
}

// ShardRange returns the half-open [lo, hi) range of member i's owned
// shard when n elements are partitioned across p members: n/p each, with
// the n%p remainder elements going to the leading members — the same
// convention netsim.ReduceScatter uses to split the wire payload, so
// element ownership and byte accounting agree.
func ShardRange(n, p, i int) (lo, hi int) {
	if p <= 1 {
		return 0, n
	}
	base, rem := n/p, n%p
	lo = i * base
	if i < rem {
		lo += i
	} else {
		lo += rem
	}
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}
