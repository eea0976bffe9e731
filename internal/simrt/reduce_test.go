package simrt

import (
	"fmt"
	"math"
	"testing"

	"xmoe/internal/netsim"
)

// randomish deterministic per-rank contribution with enough structure to
// expose order-dependent float summation differences.
func reduceTestData(rank, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(math.Sin(float64(rank*1000+i))) * float32(1+rank)
	}
	return out
}

// TestAllReduceAsyncBitIdenticalToBlocking pins the core ZeRO guarantee:
// the async reducer uses the exact member-order summation of the blocking
// all-reduce, so both produce bit-identical values.
func TestAllReduceAsyncBitIdenticalToBlocking(t *testing.T) {
	const world, n = 4, 37
	run := func(async bool) []float32 {
		c := testCluster(world)
		g := c.WorldGroup()
		var got []float32
		err := c.Run(func(r *Rank) error {
			data := reduceTestData(r.ID, n)
			var sum []float32
			if async {
				sum = r.AllReduceAsync(g, "ar", data, int64(4*n)).Wait()[0].Data
			} else {
				sum = r.AllReduce(g, "ar", data, int64(4*n))
			}
			if r.ID == 0 {
				got = append([]float32(nil), sum...)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(true), run(false)
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("async sum[%d] = %x, blocking = %x", i, math.Float32bits(a[i]), math.Float32bits(b[i]))
		}
	}
}

// TestReduceScatterAsyncShardsTheBlockingSum pins the ZeRO-2 bit-identity
// mechanism: each member's reduce-scatter shard is the ShardRange slice of
// the full member-order sum, so the concatenation across members is
// bit-identical to a blocking all-reduce of the same data.
func TestReduceScatterAsyncShardsTheBlockingSum(t *testing.T) {
	const world, n = 4, 31 // n % world != 0: remainder shards exercised
	c := testCluster(world)
	g := c.WorldGroup()

	// Reference: blocking all-reduce of the same deposits.
	var ref []float32
	if err := c.Run(func(r *Rank) error {
		sum := r.AllReduce(g, "ref", reduceTestData(r.ID, n), int64(4*n))
		if r.ID == 0 {
			ref = append([]float32(nil), sum...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	shards := make([][]float32, world)
	var bytes [4]int64
	if err := c.Run(func(r *Rank) error {
		p := r.ReduceScatterAsync(g, "rs", reduceTestData(r.ID, n), int64(4*n)).Wait()[0]
		shards[r.ID] = append([]float32(nil), p.Data...)
		bytes[r.ID] = p.Bytes
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var cat []float32
	var totalBytes int64
	for i, s := range shards {
		lo, hi := ShardRange(n, world, i)
		if len(s) != hi-lo {
			t.Fatalf("member %d shard has %d elems, ShardRange says %d", i, len(s), hi-lo)
		}
		cat = append(cat, s...)
		totalBytes += bytes[i]
	}
	if len(cat) != n || totalBytes != int64(4*n) {
		t.Fatalf("shards cover %d elems / %d bytes, want %d / %d", len(cat), totalBytes, n, 4*n)
	}
	for i := range cat {
		if math.Float32bits(cat[i]) != math.Float32bits(ref[i]) {
			t.Fatalf("concatenated shards diverge from blocking all-reduce at %d", i)
		}
	}
}

// TestReduceAsyncOverlapCharging pins the overlap model for the reduction
// collectives: a fully covered sync charges nothing, the full span shows
// up as an overlapped trace event, and blocking/async wall clocks agree
// when the wait is immediate.
func TestReduceAsyncOverlapCharging(t *testing.T) {
	c := testCluster(4)
	g := c.WorldGroup()
	const bytes = 8 << 20
	cost := c.Net.AllReduce(g.Ranks(), bytes).Seconds
	if cost <= 0 {
		t.Fatal("test needs a non-trivial all-reduce cost")
	}
	err := c.Run(func(r *Rank) error {
		h := r.AllReduceAsync(g, "grad_sync", nil, bytes)
		r.Compute("bwd_gemm", 2*cost)
		before := r.Clock
		h.Wait()
		if r.Clock != before {
			return fmt.Errorf("covered grad sync charged %.9fs", r.Clock-before)
		}
		if got := r.Trace.OverlappedTotal("grad_sync"); got != cost {
			return fmt.Errorf("overlapped span %.9f, want %.9f", got, cost)
		}
		if got := r.Trace.Total("grad_sync"); got != 0 {
			return fmt.Errorf("hidden sync still charged %.9f", got)
		}
		// Uncovered: issue and wait immediately — charges the full cost.
		start := r.Clock
		r.ReduceScatterAsync(g, "rs", nil, bytes).Wait()
		rsCost := c.Net.ReduceScatter(g.Ranks(), bytes).Seconds
		const eps = 1e-12
		if got := r.Clock - start; got < rsCost-eps || got > rsCost+eps {
			return fmt.Errorf("uncovered reduce-scatter charged %.12f, want %.12f", got, rsCost)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// shardRangeCases are TestShardRangePartition's table and FuzzShardRange's
// seeds.
var shardRangeCases = []struct{ n, p int }{{10, 4}, {31, 4}, {4, 4}, {3, 8}, {0, 4}, {7, 1}, {100, 7}}

// TestShardRangePartition pins the ownership convention: contiguous,
// covering, remainder to the leading members — matching the byte split
// netsim.ReduceScatter charges on the wire.
func TestShardRangePartition(t *testing.T) {
	for _, tc := range shardRangeCases {
		prevHi := 0
		for i := 0; i < tc.p; i++ {
			lo, hi := ShardRange(tc.n, tc.p, i)
			if lo != prevHi || hi < lo {
				t.Fatalf("ShardRange(%d,%d,%d) = [%d,%d) not contiguous from %d", tc.n, tc.p, i, lo, hi, prevHi)
			}
			size := hi - lo
			base, rem := tc.n/tc.p, tc.n%tc.p
			want := base
			if tc.p > 1 && i < rem {
				want++
			}
			if tc.p == 1 {
				want = tc.n
			}
			if size != want {
				t.Fatalf("ShardRange(%d,%d,%d) size %d, want %d", tc.n, tc.p, i, size, want)
			}
			prevHi = hi
		}
		if prevHi != tc.n {
			t.Fatalf("ShardRange(%d,%d) covers %d", tc.n, tc.p, prevHi)
		}
	}
}

// FuzzShardRange checks the ownership convention for any size and group:
// the shards are contiguous and cover [0, n), no two sizes differ by more
// than one and the larger ones lead, and the split is the byte split
// netsim charges a reduce-scatter per rank.
func FuzzShardRange(f *testing.F) {
	for _, tc := range shardRangeCases {
		f.Add(uint16(tc.n), uint8(tc.p))
	}
	f.Fuzz(func(t *testing.T, n16 uint16, p8 uint8) {
		n, p := int(n16), max(int(p8), 1)
		charged := netsim.ShardBytes(int64(n), p)
		prevHi, first, prev := 0, 0, 0
		for i := 0; i < p; i++ {
			lo, hi := ShardRange(n, p, i)
			if lo != prevHi || hi < lo {
				t.Fatalf("ShardRange(%d,%d,%d) = [%d,%d) not contiguous from %d", n, p, i, lo, hi, prevHi)
			}
			size := hi - lo
			if i == 0 {
				first, prev = size, size
			}
			if size > prev || first-size > 1 {
				t.Fatalf("ShardRange(%d,%d,%d) size %d after %d, leading size %d", n, p, i, size, prev, first)
			}
			prev = size
			if int64(size) != charged[i] {
				t.Fatalf("ShardRange(%d,%d,%d) size %d, netsim charges member %d %d bytes", n, p, i, size, i, charged[i])
			}
			prevHi = hi
		}
		if prevHi != n {
			t.Fatalf("ShardRange(%d,%d) covers %d", n, p, prevHi)
		}
	})
}
