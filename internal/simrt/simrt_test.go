package simrt

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"xmoe/internal/topology"
)

func testCluster(n int) *Cluster {
	c := NewCluster(topology.Frontier(), n, 42)
	c.Net.DisableCongestion = true
	return c
}

func TestRunExecutesEveryRank(t *testing.T) {
	c := testCluster(16)
	var count int64
	if err := c.Run(func(r *Rank) error {
		atomic.AddInt64(&count, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 16 {
		t.Fatalf("ran %d ranks, want 16", count)
	}
}

func TestRunCollectsErrors(t *testing.T) {
	c := testCluster(4)
	sentinel := errors.New("rank 2 failed")
	err := c.Run(func(r *Rank) error {
		if r.ID == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	c := testCluster(2)
	err := c.Run(func(r *Rank) error {
		if r.ID == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic should surface as error")
	}
}

func TestMemTracker(t *testing.T) {
	var m MemTracker
	m.Alloc("a", 100)
	m.Alloc("b", 50)
	if m.Current() != 150 || m.Peak() != 150 {
		t.Fatalf("cur/peak = %d/%d", m.Current(), m.Peak())
	}
	m.Free("a", 100)
	if m.Current() != 50 || m.Peak() != 150 {
		t.Fatalf("after free cur/peak = %d/%d", m.Current(), m.Peak())
	}
	m.Alloc("b", 10)
	if m.ByTag()["b"] != 60 {
		t.Fatalf("ByTag[b] = %d", m.ByTag()["b"])
	}
	// A tag's high-water mark outlives its frees and is its own, not the
	// tracker's: "a" peaked at 100 while the tracker peaked at 150.
	m.Free("b", 40)
	m.Alloc("a", 30)
	if live, peak := m.ByTag(), m.PeakByTag(); live["a"] != 30 || peak["a"] != 100 || live["b"] != 20 || peak["b"] != 60 {
		t.Fatalf("ByTag %v, PeakByTag %v; want a 30/100, b 20/60", live, peak)
	}
}

func TestDeviceOOM(t *testing.T) {
	c := testCluster(1)
	d := c.Device(0)
	d.Mem.Alloc("big", d.Profile.MemBytes+1)
	if !d.OOM() {
		t.Fatal("allocation past capacity must flag OOM")
	}
	if !c.AnyOOM() {
		t.Fatal("cluster must see the OOM")
	}
}

func TestComputeAdvancesClockAndTrace(t *testing.T) {
	c := testCluster(1)
	_ = c.Run(func(r *Rank) error {
		r.Compute("work", 0.25)
		r.Compute("work", 0.25)
		if r.Clock != 0.5 {
			return fmt.Errorf("clock = %f", r.Clock)
		}
		if got := r.Trace.Total("work"); got != 0.5 {
			return fmt.Errorf("trace total = %f", got)
		}
		return nil
	})
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	c := testCluster(4)
	g := c.WorldGroup()
	ranks, err := c.RunCollect(func(r *Rank) error {
		r.Compute("stagger", float64(r.ID)*0.1)
		r.Barrier(g)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// After the barrier every clock must be >= the slowest entrant (0.3).
	for _, r := range ranks {
		if r.Clock < 0.3 {
			t.Fatalf("rank %d clock %.3f below barrier max 0.3", r.ID, r.Clock)
		}
	}
	lead := MaxClock(ranks)
	for _, r := range ranks {
		if lead-r.Clock > 1e-9 {
			t.Fatalf("clocks diverge after barrier: %f vs %f", r.Clock, lead)
		}
	}
}

func TestAlltoAllVMovesData(t *testing.T) {
	c := testCluster(4)
	g := c.WorldGroup()
	err := c.Run(func(r *Rank) error {
		send := make([]Part, 4)
		for j := range send {
			// rank i sends value 100*i+j to rank j
			send[j] = Part{Data: []float32{float32(100*r.ID + j)}, Bytes: 4}
		}
		recv := r.AlltoAllV(g, "a2a", send)
		for s, p := range recv {
			want := float32(100*s + r.ID)
			if len(p.Data) != 1 || p.Data[0] != want {
				return fmt.Errorf("rank %d recv from %d = %v, want %v", r.ID, s, p.Data, want)
			}
		}
		if r.Clock <= 0 {
			return fmt.Errorf("a2av charged no time")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoAllVSymbolicParts(t *testing.T) {
	c := testCluster(8)
	g := c.WorldGroup()
	err := c.Run(func(r *Rank) error {
		send := make([]Part, 8)
		for j := range send {
			send[j] = Part{Bytes: 1 << 20}
		}
		recv := r.AlltoAllV(g, "a2a", send)
		for _, p := range recv {
			if p.Bytes != 1<<20 || p.Data != nil {
				return fmt.Errorf("symbolic part corrupted: %+v", p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSums(t *testing.T) {
	c := testCluster(4)
	g := c.WorldGroup()
	err := c.Run(func(r *Rank) error {
		sum := r.AllReduce(g, "ar", []float32{float32(r.ID), 1}, 8)
		if sum[0] != 6 || sum[1] != 4 { // 0+1+2+3, 1*4
			return fmt.Errorf("allreduce sum = %v", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherCollectsInOrder(t *testing.T) {
	c := testCluster(4)
	g := c.WorldGroup()
	err := c.Run(func(r *Rank) error {
		parts := r.AllGather(g, "ag", Part{Data: []float32{float32(r.ID)}, Bytes: 4}, nil).Wait()
		for i, p := range parts {
			if p.Data[0] != float32(i) {
				return fmt.Errorf("allgather[%d] = %v", i, p.Data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// evenParts builds an even all-to-all send list of bytes per pair (self
// included, matching the byte matrices used below).
func evenParts(p int, bytes int64) []Part {
	send := make([]Part, p)
	for j := range send {
		send[j] = Part{Bytes: bytes}
	}
	return send
}

// evenMatrix is the byte matrix equivalent of evenParts.
func evenMatrix(p int, bytes int64) [][]int64 {
	m := make([][]int64, p)
	for i := range m {
		m[i] = make([]int64, p)
		for j := range m[i] {
			m[i][j] = bytes
		}
	}
	return m
}

func TestAsyncWaitChargesOnlyUncoveredRemainder(t *testing.T) {
	c := testCluster(4)
	g := c.WorldGroup()
	const bytes = 4 << 20
	cost := c.Net.AlltoAllV(g.Ranks(), evenMatrix(4, bytes)).Seconds
	if cost <= 0 {
		t.Fatal("test needs a non-trivial collective cost")
	}
	err := c.Run(func(r *Rank) error {
		// Fully covered: compute for 3x the collective's duration before
		// waiting — the wait must charge nothing.
		h := r.AlltoAllVAsync(g, "a2a", evenParts(4, bytes))
		r.Compute("gemm", 3*cost)
		before := r.Clock
		h.Wait()
		if r.Clock != before {
			return fmt.Errorf("covered wait charged %.9fs", r.Clock-before)
		}
		if got := r.Trace.OverlappedTotal("a2a"); got != cost {
			return fmt.Errorf("overlapped span %.9f, want full cost %.9f", got, cost)
		}
		if got := r.Trace.Total("a2a"); got != 0 {
			return fmt.Errorf("clock-charged a2a %.9f, want 0 (fully hidden)", got)
		}

		// Partially covered: compute for half the duration — the wait
		// must charge exactly the other half.
		start := r.Clock
		h2 := r.AlltoAllVAsync(g, "a2a2", evenParts(4, bytes))
		r.Compute("gemm", cost/2)
		h2.Wait()
		// All ranks entered with equal clocks, so the collective spans
		// [start, start+cost] and the rank computed to start+cost/2.
		const eps = 1e-12
		if got, want := r.Clock-start, cost; got < want-eps || got > want+eps {
			return fmt.Errorf("partially covered total %.15f, want %.15f", got, want)
		}
		if got, want := r.Trace.Total("a2a2"), cost/2; got < want-eps || got > want+eps {
			return fmt.Errorf("uncovered charge %.15f, want %.15f", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAsyncImmediateWaitMatchesBlocking(t *testing.T) {
	const bytes = 1 << 20
	run := func(async bool) float64 {
		c := testCluster(4)
		g := c.WorldGroup()
		ranks, err := c.RunCollect(func(r *Rank) error {
			r.Compute("stagger", float64(r.ID)*1e-3)
			send := make([]Part, 4)
			for j := range send {
				send[j] = Part{Data: []float32{float32(100*r.ID + j)}, Bytes: bytes}
			}
			var recv []Part
			if async {
				recv = r.AlltoAllVAsync(g, "a2a", send).Wait()
			} else {
				recv = r.AlltoAllV(g, "a2a", send)
			}
			for s, p := range recv {
				if want := float32(100*s + r.ID); p.Data[0] != want {
					return fmt.Errorf("recv from %d = %v, want %v", s, p.Data, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return MaxClock(ranks)
	}
	if a, b := run(true), run(false); a != b {
		t.Fatalf("async+immediate-wait wall clock %.9f != blocking %.9f", a, b)
	}
}

// TestAlltoAllVChunkSingleChunkIsBlocking pins the rule the pipelines rely
// on: one chunk is the blocking collective (clock charged at issue, one
// span, nothing overlapped, Wait free), more chunks fly under compute.
func TestAlltoAllVChunkSingleChunkIsBlocking(t *testing.T) {
	c := testCluster(4)
	g := c.WorldGroup()
	const bytes = 4 << 20
	cost := c.Net.AlltoAllV(g.Ranks(), evenMatrix(4, bytes)).Seconds
	err := c.Run(func(r *Rank) error {
		x := r.AlltoAllVChunk(g, "one", evenParts(4, bytes), nil, 1)
		if r.Clock != cost {
			return fmt.Errorf("single chunk: clock %.9f after issue, want the blocking cost %.9f", r.Clock, cost)
		}
		r.Compute("gemm", cost)
		if got := len(x.Wait()); got != 4 || r.Clock != 2*cost {
			return fmt.Errorf("single chunk: Wait returned %d parts at clock %.9f, want 4 at %.9f", got, r.Clock, 2*cost)
		}
		if r.Trace.OverlappedTotal("one") != 0 || r.Trace.Total("one") != cost {
			return fmt.Errorf("single chunk: charged %.9f, overlapped %.9f; want %.9f and 0",
				r.Trace.Total("one"), r.Trace.OverlappedTotal("one"), cost)
		}
		before := r.Clock
		y := r.AlltoAllVChunk(g, "two", evenParts(4, bytes), nil, 2)
		r.Compute("gemm", 3*cost)
		if y.Wait(); r.Clock != before+3*cost || r.Trace.Total("two") != 0 {
			return fmt.Errorf("chunked: covered exchange charged %.9f", r.Trace.Total("two"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAsyncCommStreamSerialises pins the per-rank comm-stream model: two
// in-flight collectives do not overlap each other, so waiting on both
// costs the sum of their durations, not the max.
func TestAsyncCommStreamSerialises(t *testing.T) {
	c := testCluster(4)
	g := c.WorldGroup()
	const bytes = 4 << 20
	cost := c.Net.AlltoAllV(g.Ranks(), evenMatrix(4, bytes)).Seconds
	err := c.Run(func(r *Rank) error {
		h1 := r.AlltoAllVAsync(g, "a2a_1", evenParts(4, bytes))
		h2 := r.AlltoAllVAsync(g, "a2a_2", evenParts(4, bytes))
		h1.Wait()
		h2.Wait()
		if got, want := r.Clock, 2*cost; got != want {
			return fmt.Errorf("two serialised collectives took %.9f, want %.9f", got, want)
		}
		if !h1.done() || !h2.done() {
			return fmt.Errorf("handles must report done after wait")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBlockingCollectiveDrainsCommStream pins the comm-stream contract
// for blocking calls too: a blocking collective issued while an async one
// is in flight serialises behind it instead of overlapping for free.
func TestBlockingCollectiveDrainsCommStream(t *testing.T) {
	c := testCluster(4)
	g := c.WorldGroup()
	const bytes = 4 << 20
	a2aCost := c.Net.AlltoAllV(g.Ranks(), evenMatrix(4, bytes)).Seconds
	arCost := c.Net.AllReduce(g.Ranks(), bytes).Seconds
	err := c.Run(func(r *Rank) error {
		h := r.AlltoAllVAsync(g, "a2a", evenParts(4, bytes))
		r.AllReduce(g, "ar", nil, bytes)
		if got, want := r.Clock, a2aCost+arCost; got < want-1e-12 {
			return fmt.Errorf("blocking allreduce overlapped in-flight a2a: clock %.9f, want >= %.9f", got, want)
		}
		before := r.Clock
		h.Wait() // already complete: the allreduce drained the stream first
		if r.Clock != before {
			return fmt.Errorf("wait after drain charged %.9f", r.Clock-before)
		}
		// The drained stream time must be attributed to a span: the
		// clock-charged breakdown still sums to wall-clock time.
		var sum float64
		for _, d := range r.Trace.Breakdown() {
			sum += d
		}
		if sum < r.Clock-1e-12 || sum > r.Clock+1e-12 {
			return fmt.Errorf("breakdown sums to %.9f, wall-clock is %.9f", sum, r.Clock)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveSteadyStateAllocs pins the rank-side allocations per
// rank-call of every collective the pipelines and the ZeRO sync use, at
// world 8: the typed rendezvous boxes nothing, so what remains is the
// rendezvous itself and the pricer's shared result (both amortised over
// the group) plus, for a non-blocking call, its CommHandle and the closure
// of the goroutine that prices its flight: one allocation per flight,
// 1/8 = 0.125 per rank-call at world 8, which is why the async ceilings sit
// 0.15 above the 2.0 / 1.75 / 1.9 they had while flights were priced at
// the rendezvous.
func TestCollectiveSteadyStateAllocs(t *testing.T) {
	const world, iters = 8, 64
	c := testCluster(world)
	g := c.WorldGroup()
	for _, tc := range []struct {
		name string
		max  float64
		call func(r *Rank, send []Part)
	}{
		{"a2av", 0.9, func(r *Rank, send []Part) { r.AlltoAllV(g, "a2av", send) }},
		{"a2av_async", 2.15, func(r *Rank, send []Part) { r.AlltoAllVAsync(g, "a2av", send).Wait() }},
		{"allreduce", 0.65, func(r *Rank, _ []Part) { r.AllReduce(g, "ar", nil, 1<<20) }},
		{"allreduce_async", 1.9, func(r *Rank, _ []Part) { r.AllReduceAsync(g, "ar", nil, 1<<20).Wait() }},
		{"reducescatter_async", 2.05, func(r *Rank, _ []Part) { r.ReduceScatterAsync(g, "rs", nil, 1<<20).Wait() }},
		{"allgather", 0.75, func(r *Rank, _ []Part) { r.AllGather(g, "ag", Part{Bytes: 1 << 20}, nil) }},
	} {
		body := func(n int) func() {
			return func() {
				if err := c.Run(func(r *Rank) error {
					send := evenParts(world, 1<<16)
					for i := 0; i < n; i++ {
						tc.call(r, send)
					}
					return nil
				}); err != nil {
					t.Error(err)
				}
			}
		}
		base := testing.AllocsPerRun(10, body(0))
		loaded := testing.AllocsPerRun(10, body(iters))
		if perCall := (loaded - base) / (world * iters); perCall > tc.max {
			t.Errorf("%s allocates %.2f per rank-call in steady state, want <= %.2f", tc.name, perCall, tc.max)
		}
	}
}

// TestAsyncDoubleWaitIsIdempotent pins the documented Wait contract: the
// second Wait charges nothing, records nothing, and returns the same
// received parts.
func TestAsyncDoubleWaitIsIdempotent(t *testing.T) {
	c := testCluster(4)
	g := c.WorldGroup()
	const bytes = 1 << 20
	err := c.Run(func(r *Rank) error {
		send := make([]Part, 4)
		for j := range send {
			send[j] = Part{Data: []float32{float32(10*r.ID + j)}, Bytes: bytes}
		}
		h := r.AlltoAllVAsync(g, "a2a", send)
		first := h.Wait()
		clock := r.Clock
		charged := r.Trace.Total("a2a")
		overlapped := r.Trace.OverlappedTotal("a2a")
		second := h.Wait()
		if r.Clock != clock {
			return fmt.Errorf("second Wait charged %.9fs", r.Clock-clock)
		}
		if got := r.Trace.Total("a2a"); got != charged {
			return fmt.Errorf("second Wait recorded an extra span: %.9f vs %.9f", got, charged)
		}
		if got := r.Trace.OverlappedTotal("a2a"); got != overlapped {
			return fmt.Errorf("second Wait recorded an extra overlapped span")
		}
		if len(first) != len(second) {
			return fmt.Errorf("waits returned different part counts")
		}
		for i := range first {
			if first[i].Data[0] != second[i].Data[0] {
				return fmt.Errorf("waits returned different payloads at %d", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunReportsLeakedHandles pins the teardown check: a rank that issues
// an async collective and returns without waiting it must surface an
// error naming the dropped collective instead of silently losing the
// synchronisation.
func TestRunReportsLeakedHandles(t *testing.T) {
	c := testCluster(4)
	g := c.WorldGroup()
	err := c.Run(func(r *Rank) error {
		h := r.AlltoAllVAsync(g, "leaky_a2a", evenParts(4, 1<<16))
		if r.ID != 0 {
			h.Wait() // only rank 0 leaks
		}
		return nil
	})
	if err == nil {
		t.Fatal("leaked handle must surface as a Run error")
	}
	if !strings.Contains(err.Error(), "leaky_a2a") || !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("leak error should name the collective and rank, got: %v", err)
	}
}

// TestRunLeakCheckSkippedOnError verifies the leak check does not mask a
// real rank error: when the body fails, the original error is reported.
func TestRunLeakCheckSkippedOnError(t *testing.T) {
	c := testCluster(2)
	g := c.WorldGroup()
	sentinel := errors.New("body failed")
	err := c.Run(func(r *Rank) error {
		r.AlltoAllVAsync(g, "a2a", evenParts(2, 1<<10)).Wait()
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("body error lost: %v", err)
	}
}

// TestAsyncOutOfOrderWaits pins interleaved async collectives on one
// rank's comm stream: waiting the later handle first charges through both
// transfers (the stream is in-order), after which the earlier handle's
// Wait is free.
func TestAsyncOutOfOrderWaits(t *testing.T) {
	c := testCluster(4)
	g := c.WorldGroup()
	const bytes = 4 << 20
	cost := c.Net.AlltoAllV(g.Ranks(), evenMatrix(4, bytes)).Seconds
	err := c.Run(func(r *Rank) error {
		h1 := r.AlltoAllVAsync(g, "a2a_first", evenParts(4, bytes))
		h2 := r.AlltoAllVAsync(g, "a2a_second", evenParts(4, bytes))
		h2.Wait() // later collective first: charges both serialised legs
		if got, want := r.Clock, 2*cost; got != want {
			return fmt.Errorf("waiting the later handle charged %.9f, want %.9f", got, want)
		}
		if !h1.done() {
			return fmt.Errorf("earlier collective must be complete once the later one is")
		}
		before := r.Clock
		h1.Wait()
		if r.Clock != before {
			return fmt.Errorf("earlier handle's wait charged %.9f after stream drained", r.Clock-before)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChunkRange(t *testing.T) {
	for _, tc := range []struct{ n, chunks int }{{10, 4}, {3, 8}, {0, 4}, {7, 1}, {16, 4}} {
		covered := 0
		prevHi := 0
		for c := 0; c < tc.chunks; c++ {
			lo, hi := ChunkRange(tc.n, tc.chunks, c)
			if lo != prevHi || hi < lo || hi > tc.n {
				t.Fatalf("ChunkRange(%d,%d,%d) = [%d,%d) not contiguous", tc.n, tc.chunks, c, lo, hi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.n {
			t.Fatalf("ChunkRange(%d,%d) covers %d rows", tc.n, tc.chunks, covered)
		}
	}
	if lo, hi := ChunkRange(9, 1, 0); lo != 0 || hi != 9 {
		t.Fatalf("single chunk must span everything, got [%d,%d)", lo, hi)
	}
}

func TestSubGroupsOperateIndependently(t *testing.T) {
	c := testCluster(8)
	g0 := c.NewGroup([]int{0, 1, 2, 3})
	g1 := c.NewGroup([]int{4, 5, 6, 7})
	err := c.Run(func(r *Rank) error {
		g := g0
		base := 0
		if r.ID >= 4 {
			g = g1
			base = 4
		}
		sum := r.AllReduce(g, "ar", []float32{float32(r.ID)}, 4)
		want := float32(base + base + 1 + base + 2 + base + 3)
		if sum[0] != want {
			return fmt.Errorf("rank %d group sum = %v, want %v", r.ID, sum[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedCollectivesOnSameGroup(t *testing.T) {
	c := testCluster(4)
	g := c.WorldGroup()
	err := c.Run(func(r *Rank) error {
		for iter := 0; iter < 50; iter++ {
			sum := r.AllReduce(g, "ar", []float32{1}, 4)
			if sum[0] != 4 {
				return fmt.Errorf("iter %d: sum = %v", iter, sum[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupIndexing(t *testing.T) {
	c := testCluster(8)
	g := c.NewGroup([]int{5, 1, 3}) // normalised to 1,3,5
	if g.Size() != 3 {
		t.Fatalf("size = %d", g.Size())
	}
	if g.IndexOf(1) != 0 || g.IndexOf(3) != 1 || g.IndexOf(5) != 2 {
		t.Fatal("IndexOf wrong after normalisation")
	}
	if _, in := g.index[2]; in {
		t.Fatal("rank 2 indexed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("IndexOf of non-member should panic")
		}
	}()
	g.IndexOf(2)
}

func TestNewGroupRejectsBadRanks(t *testing.T) {
	c := testCluster(4)
	for _, bad := range [][]int{{0, 0}, {-1}, {4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewGroup(%v) should panic", bad)
				}
			}()
			c.NewGroup(bad)
		}()
	}
}

func TestLargeScaleSmoke1024Ranks(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank smoke test skipped in -short")
	}
	c := testCluster(1024)
	g := c.WorldGroup()
	ranks, err := c.RunCollect(func(r *Rank) error {
		r.Barrier(g)
		sum := r.AllReduce(g, "ar", nil, 1<<20)
		_ = sum
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if MaxClock(ranks) <= 0 {
		t.Fatal("1024-rank collectives should consume simulated time")
	}
}

// AlltoAllVAsync issues a non-blocking uneven all-to-all among the group,
// as AlltoAllVChunk does for more than one chunk, and returns its handle:
// the call returns at the rank's current clock and Wait charges the
// uncovered remainder. send must not change until the handle is waited.
func (r *Rank) AlltoAllVAsync(g *Group, name string, send []Part) *CommHandle {
	return r.async(g, name, a2avDeposit(g, "AlltoAllVAsync", send), priceA2AV)
}

// Barrier synchronises all members' clocks: the one collective the tests
// use to line ranks up, priced by the engine's Barrier.
func (r *Rank) Barrier(g *Group) {
	r.block(g, "barrier", deposit{}, func(g *Group, _ []deposit) (float64, [][]Part) {
		return g.c.CostEngine().Barrier(g.ranks).Seconds, nil
	})
}

// done reports whether the collective has completed by the rank's current
// clock — i.e. whether Wait would charge nothing. It blocks the host, not
// the virtual clock, until the collective is priced.
func (h *CommHandle) done() bool {
	_, end := h.r.await(h.fl, h.name)
	return h.r.Clock >= end
}
