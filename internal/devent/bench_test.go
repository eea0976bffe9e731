package devent

import (
	"testing"

	"xmoe/internal/netsim"
	"xmoe/internal/topology"
)

// Ledger rungs for one event-priced cost query on RailGraph(Frontier, 64):
// the shapes the repo benchmark's devent.a2av_miss_ms / a2av_hit_us /
// allreduce_miss_ms probes time from outside, plus the allocation pins
// that keep a warm-arena query from growing with the group size.

var sinkCost netsim.Cost

// raggedSend is the benchmark probes' uneven p x p matrix: every pair
// non-zero, no two payloads equal.
func raggedSend(p int) [][]int64 {
	send := make([][]int64, p)
	for i := range send {
		send[i] = make([]int64, p)
		for j := range send[i] {
			send[i][j] = int64(1<<16 + 97*i + 13*j)
		}
	}
	return send
}

func railEngine(p int) (*Engine, []int) {
	return New(topology.RailGraph(topology.Frontier(), p, 0)), ranksOf(p)
}

// BenchmarkA2AVMiss prices a matrix the memo has not seen on a warm arena:
// one entry moves per iteration.
func BenchmarkA2AVMiss(b *testing.B) {
	eng, ranks := railEngine(64)
	send := raggedSend(64)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		send[0][63] = int64(1<<20 + i)
		sinkCost = eng.AlltoAllV(ranks, send)
	}
}

func BenchmarkA2AVHit(b *testing.B) {
	eng, ranks := railEngine(64)
	send := raggedSend(64)
	eng.AlltoAllV(ranks, send)
	b.ReportAllocs()
	for b.Loop() {
		sinkCost = eng.AlltoAllV(ranks, send)
	}
}

func BenchmarkAllReduceMiss(b *testing.B) {
	eng, ranks := railEngine(64)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		sinkCost = eng.AllReduce(ranks, int64(1<<24+i))
	}
}

// A warm-arena miss allocates what it hands back (the BytesByClass map)
// and its memo entry, nothing per flow or per event: the count is small
// and the same at p = 16 and p = 64. A hit allocates nothing at all.
func TestQueryAllocations(t *testing.T) {
	var missAllocs [2]float64
	for k, p := range []int{16, 64} {
		eng, ranks := railEngine(p)
		send := raggedSend(p)
		n := 0
		miss := func() {
			n++
			send[0][p-1] = int64(1<<20 + n)
			sinkCost = eng.AlltoAllV(ranks, send)
		}
		miss() // grows the arena to this collective's size
		missAllocs[k] = testing.AllocsPerRun(10, miss)
		if missAllocs[k] > 8 {
			t.Errorf("p=%d: warm-arena a2av miss allocates %.0f objects, want <= 8", p, missAllocs[k])
		}
		if hit := testing.AllocsPerRun(10, func() { sinkCost = eng.AlltoAllV(ranks, send) }); hit > 2 {
			t.Errorf("p=%d: a2av memo hit allocates %.0f objects, want <= 2", p, hit)
		}
	}
	if missAllocs[0] != missAllocs[1] {
		t.Errorf("a2av miss allocations grow with the group: %.0f at p=16, %.0f at p=64", missAllocs[0], missAllocs[1])
	}
}
