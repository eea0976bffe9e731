package devent

import (
	"math"
	"testing"

	"xmoe/internal/netsim"
	"xmoe/internal/topology"
)

// The cross-validation contract: on a contention-free flat topology the
// event engine must reproduce the analytic model's BytesByClass
// integer-exactly and its Seconds to within 1 picosecond (the only
// permitted difference is float summation order) on the even/uniform
// layouts where the analytic ring identities are exact.

const timeTol = 1e-12 // one picosecond

func flatPair(t *testing.T, n int) (*netsim.Network, *Engine) {
	t.Helper()
	m := topology.Flat(n)
	net := netsim.New(m, 1)
	net.DisableCongestion = true
	return net, New(topology.FlatGraph(m, n))
}

func sameBytes(t *testing.T, what string, an, ev netsim.Cost) {
	t.Helper()
	for class := topology.LinkLocal; class <= topology.LinkCrossRack; class++ {
		if an.BytesByClass[class] != ev.BytesByClass[class] {
			t.Errorf("%s: BytesByClass[%v] analytic=%d event=%d",
				what, class, an.BytesByClass[class], ev.BytesByClass[class])
		}
	}
}

func sameTime(t *testing.T, what string, an, ev netsim.Cost) {
	t.Helper()
	if d := math.Abs(an.Seconds - ev.Seconds); d > timeTol {
		t.Errorf("%s: Seconds analytic=%.15g event=%.15g (|Δ|=%.3g > 1ps)",
			what, an.Seconds, ev.Seconds, d)
	}
}

func ranksOf(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

func TestFlatAgreementExact(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16} {
		net, eng := flatPair(t, p)
		ranks := ranksOf(p)

		// Even all-to-all.
		an, ev := net.AlltoAll(ranks, 1<<20), eng.alltoAll(ranks, 1<<20)
		sameBytes(t, "alltoall", an, ev)
		sameTime(t, "alltoall", an, ev)

		// Even all-to-all with self payloads on the diagonal.
		send := make([][]int64, p)
		for i := range send {
			send[i] = make([]int64, p)
			for j := range send[i] {
				send[i][j] = 1 << 19
			}
		}
		an, ev = net.AlltoAllV(ranks, send), eng.AlltoAllV(ranks, send)
		sameBytes(t, "alltoallv+self", an, ev)
		sameTime(t, "alltoallv+self", an, ev)

		// All-reduce of a p-divisible payload.
		bytes := int64(p) << 18
		an, ev = net.AllReduce(ranks, bytes), eng.AllReduce(ranks, bytes)
		sameBytes(t, "allreduce", an, ev)
		sameTime(t, "allreduce", an, ev)

		// Uniform all-gather.
		per := make([]int64, p)
		for i := range per {
			per[i] = 1 << 18
		}
		an, ev = net.AllGather(ranks, per), eng.AllGather(ranks, per)
		sameBytes(t, "allgather", an, ev)
		sameTime(t, "allgather", an, ev)

		// p-divisible reduce-scatter.
		an, ev = net.ReduceScatter(ranks, bytes), eng.ReduceScatter(ranks, bytes)
		sameBytes(t, "reducescatter", an, ev)
		sameTime(t, "reducescatter", an, ev)

		// Broadcast and barrier.
		an, ev = net.Broadcast(ranks, 1<<22), eng.Broadcast(ranks, 1<<22)
		sameBytes(t, "broadcast", an, ev)
		sameTime(t, "broadcast", an, ev)
		an, ev = net.Barrier(ranks), eng.Barrier(ranks)
		sameTime(t, "barrier", an, ev)
	}
}

// Uneven payloads break the lockstep schedule, so the event engine may only
// be slower than the analytic bound — never faster — while byte accounting
// stays integer-exact.
func TestFlatUnevenEventAtLeastAnalytic(t *testing.T) {
	p := 8
	net, eng := flatPair(t, p)
	ranks := ranksOf(p)

	send := make([][]int64, p)
	for i := range send {
		send[i] = make([]int64, p)
		for j := range send[i] {
			send[i][j] = int64((i*p+j)%5) << 17
		}
	}
	an, ev := net.AlltoAllV(ranks, send), eng.AlltoAllV(ranks, send)
	sameBytes(t, "uneven alltoallv", an, ev)
	if ev.Seconds < an.Seconds-timeTol {
		t.Errorf("uneven alltoallv: event %.15g faster than analytic %.15g", ev.Seconds, an.Seconds)
	}

	// Non-divisible reduce-scatter: remainder shards desync the ring.
	bytes := int64(p)<<18 + 3
	an, ev = net.ReduceScatter(ranks, bytes), eng.ReduceScatter(ranks, bytes)
	sameBytes(t, "remainder reducescatter", an, ev)
	if ev.Seconds < an.Seconds-timeTol {
		t.Errorf("remainder reducescatter: event %.15g faster than analytic %.15g", ev.Seconds, an.Seconds)
	}
}

// Ported from internal/netsim's TestCollectiveByteAccountingConvention: the
// aggregate-bytes identities the analytic model pins must hold verbatim for
// the event engine on a contention-free topology.
func TestEventByteAccountingConvention(t *testing.T) {
	p := 8
	_, eng := flatPair(t, p)
	ranks := ranksOf(p)
	pair := topology.LinkGCDPair

	R := int64(4 << 20)
	if got, want := eng.AllReduce(ranks, R).BytesByClass[pair], 2*int64(p-1)*R; got != want {
		t.Errorf("allreduce bytes = %d, want 2(p-1)R = %d", got, want)
	}

	per := make([]int64, p)
	var T int64
	for i := range per {
		per[i] = int64(i+1) << 16
		T += per[i]
	}
	if got, want := eng.AllGather(ranks, per).BytesByClass[pair], int64(p-1)*T; got != want {
		t.Errorf("allgather bytes = %d, want (p-1)T = %d", got, want)
	}

	B := int64(4<<20 + 5) // non-divisible: remainder must not leak bytes
	if got, want := eng.ReduceScatter(ranks, B).BytesByClass[pair], int64(p-1)*B; got != want {
		t.Errorf("reducescatter bytes = %d, want (p-1)B = %d", got, want)
	}

	bpp := int64(1 << 20)
	if got, want := eng.alltoAll(ranks, bpp).BytesByClass[pair], int64(p)*int64(p-1)*bpp; got != want {
		t.Errorf("alltoall bytes = %d, want p(p-1)b = %d", got, want)
	}

	if got, want := eng.Broadcast(ranks, R).BytesByClass[pair], int64(p-1)*R; got != want {
		t.Errorf("broadcast bytes = %d, want (p-1)B = %d", got, want)
	}

	if got := eng.Barrier(ranks).TotalBytes(); got != 0 {
		t.Errorf("barrier moved %d bytes, want 0", got)
	}
}

// On a congested hierarchical graph the event engine must see contention
// the analytic model cannot: concurrent inter-node flows queue on the
// shared NIC trunks, so the even all-to-all is strictly slower than the
// analytic estimate.
func TestRailContentionDiverges(t *testing.T) {
	m := topology.Frontier()
	n := 64
	net := netsim.New(m, 1)
	net.DisableCongestion = true
	eng := New(topology.RailGraph(m, n, 0))
	ranks := ranksOf(n)

	an, ev := net.AlltoAll(ranks, 1<<20), eng.alltoAll(ranks, 1<<20)
	sameBytes(t, "rail alltoall", an, ev)
	if ev.Seconds <= an.Seconds {
		t.Errorf("rail alltoall: event %.6g not slower than analytic %.6g — no contention seen",
			ev.Seconds, an.Seconds)
	}
}

// Degraded links must slow only the derated class, leaving byte accounting
// untouched (ported from the netsim derate invariant).
func TestEventLinkDerate(t *testing.T) {
	p := 8
	_, eng := flatPair(t, p)
	ranks := ranksOf(p)
	healthy := eng.alltoAll(ranks, 1<<20)

	eng.SetLinkDerate(map[topology.LinkClass]float64{topology.LinkGCDPair: 2})
	slowed := eng.alltoAll(ranks, 1<<20)
	eng.SetLinkDerate(nil)

	if slowed.Seconds <= healthy.Seconds {
		t.Errorf("derated alltoall %.6g not slower than healthy %.6g", slowed.Seconds, healthy.Seconds)
	}
	sameBytes(t, "derate", healthy, slowed)

	restored := eng.alltoAll(ranks, 1<<20)
	if restored.Seconds != healthy.Seconds {
		t.Errorf("after clearing derate: %.15g, want %.15g (stale memo?)", restored.Seconds, healthy.Seconds)
	}
}

// alltoAll is the even all-to-all through AlltoAllV, what
// netsim.Network.AlltoAll prices analytically.
func (e *Engine) alltoAll(ranks []int, bytesPerPair int64) netsim.Cost {
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
	return e.AlltoAllV(ranks, send)
}
