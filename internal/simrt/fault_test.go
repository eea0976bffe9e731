package simrt

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmoe/internal/netsim"
)

// testInjector is a hand-rolled Injector for runtime-level tests (the
// seeded plan lives in internal/fault; these tests pin the runtime
// contract independently of it).
type testInjector struct {
	mu         sync.Mutex
	scale      map[int]float64    // rank -> compute multiplier
	delays     map[string]float64 // "rank/name" -> retry delay, consumed once
	crashClock map[int]float64    // rank -> crash at-or-after this clock
	crashErr   error
}

func (i *testInjector) ComputeScale(rank int) float64 {
	if s, ok := i.scale[rank]; ok {
		return s
	}
	return 1
}

func (i *testInjector) CollectiveDelay(rank int, name string, clock float64) float64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	key := fmt.Sprintf("%d/%s", rank, name)
	d := i.delays[key]
	delete(i.delays, key)
	return d
}

func (i *testInjector) CrashError(rank int, clock float64) error {
	at, ok := i.crashClock[rank]
	if !ok || clock < at {
		return nil
	}
	if i.crashErr != nil {
		return i.crashErr
	}
	return ErrRankCrashed
}

// TestRunReturnsWhenRankPanicsMidCollective is the deadlock regression
// the abort machinery exists for: one rank panics before joining a
// collective while every peer is already parked at the rendezvous.
// Before the abort machinery, Run never returned. Now it must return a
// joined error that attributes the panic to rank 1 and gives every
// survivor a typed ErrPeerFailed.
func TestRunReturnsWhenRankPanicsMidCollective(t *testing.T) {
	c := testCluster(4)
	g := c.WorldGroup()
	err := c.Run(func(r *Rank) error {
		if r.ID == 1 {
			// Let the peers reach the rendezvous first so the abort has
			// to wake parked waiters, not just fail fast at entry.
			panic("simulated hard fault")
		}
		r.AllReduce(g, "ar", []float32{1}, 4)
		return nil
	})
	if err == nil {
		t.Fatal("Run must return an error when a rank dies mid-collective")
	}
	if !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("survivors must observe ErrPeerFailed, got: %v", err)
	}
	if !strings.Contains(err.Error(), "rank 1 panicked") {
		t.Fatalf("error must attribute the panic to rank 1, got: %v", err)
	}
	// All three survivors must report the aborted collective by name.
	// Checked per rank, not by substring count: a survivor woken by an
	// already-aborted peer nests that peer's text as its cause, so the
	// phrase can appear more than once per line (abort *text* is
	// scheduling-dependent; only the outcome set is deterministic).
	for _, survivor := range []int{0, 2, 3} {
		if want := fmt.Sprintf("rank %d: ar aborted", survivor); !strings.Contains(err.Error(), want) {
			t.Fatalf("survivor %d must name the aborted collective, got: %v", survivor, err)
		}
	}
	if fr := c.FailedRanks(); fr[1] == nil {
		t.Fatalf("failure registry must record rank 1, got %v", fr)
	}
}

// TestRunReturnsWhenRankErrorsMidCollective: same regression for a rank
// that returns an error (no panic) while peers are blocked.
func TestRunReturnsWhenRankErrorsMidCollective(t *testing.T) {
	c := testCluster(4)
	g := c.WorldGroup()
	sentinel := errors.New("body gave up")
	err := c.Run(func(r *Rank) error {
		if r.ID == 2 {
			return sentinel
		}
		r.Barrier(g)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("failing rank's own error lost: %v", err)
	}
	if !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("survivors must observe ErrPeerFailed: %v", err)
	}
}

// TestInjectedCrashAbortsPeers pins the Injector crash path end to end:
// the victim unwinds with ErrRankCrashed at its first operation at or
// after the crash clock, and peers abort instead of deadlocking.
func TestInjectedCrashAbortsPeers(t *testing.T) {
	c := testCluster(4)
	c.Inject = &testInjector{crashClock: map[int]float64{3: 0.5}}
	g := c.WorldGroup()
	err := c.Run(func(r *Rank) error {
		r.Compute("warmup", 0.6) // rank 3's next boundary is past 0.5
		r.AllReduce(g, "ar", nil, 4)
		return nil
	})
	if !errors.Is(err, ErrRankCrashed) {
		t.Fatalf("victim must report ErrRankCrashed: %v", err)
	}
	if !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("survivors must report ErrPeerFailed: %v", err)
	}
	if fr := c.FailedRanks(); !errors.Is(fr[3], ErrRankCrashed) {
		t.Fatalf("registry must blame rank 3's crash, got %v", fr)
	}
}

// TestCrashDoesNotAbortCompletedRendezvous pins the sequence-aware gone
// marks: a rendezvous the victim fully participated in completes
// normally on every rank; only the next one aborts.
func TestCrashDoesNotAbortCompletedRendezvous(t *testing.T) {
	c := testCluster(4)
	c.Inject = &testInjector{crashClock: map[int]float64{0: 0.1}}
	g := c.WorldGroup()
	sums := make([]float32, 4)
	err := c.Run(func(r *Rank) error {
		// First collective at clock 0 — before the crash arms.
		sums[r.ID] = r.AllReduce(g, "ar1", []float32{1}, 4)[0]
		r.Compute("work", 0.2) // rank 0 crashes at this boundary's entry+next op
		r.AllReduce(g, "ar2", []float32{1}, 4)
		return nil
	})
	if err == nil || !errors.Is(err, ErrRankCrashed) {
		t.Fatalf("want injected crash, got: %v", err)
	}
	for id, s := range sums {
		if s != 4 {
			t.Fatalf("rank %d: pre-crash collective corrupted: sum=%v", id, s)
		}
	}
}

// TestStragglerScalesComputeAndPeersAbsorbIt: the straggler's compute
// spans stretch by the multiplier and the BSP collective drags every
// peer's clock to the straggler's.
func TestStragglerScalesComputeAndPeersAbsorbIt(t *testing.T) {
	c := testCluster(4)
	c.Inject = &testInjector{scale: map[int]float64{2: 3}}
	g := c.WorldGroup()
	ranks, err := c.RunCollect(func(r *Rank) error {
		r.Compute("gemm", 0.1)
		r.Barrier(g)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ranks[2].Trace.Total("gemm"); math.Abs(got-0.3) > 1e-15 {
		t.Fatalf("straggler compute = %v, want 0.3 (3x)", got)
	}
	if got := ranks[0].Trace.Total("gemm"); got != 0.1 {
		t.Fatalf("healthy rank compute = %v, want 0.1", got)
	}
	for _, r := range ranks {
		if r.Clock < 0.3 {
			t.Fatalf("rank %d clock %v: barrier must drag everyone to the straggler", r.ID, r.Clock)
		}
	}
}

// TestFlakyCollectiveDelayChargedToClock: the injector's retry delay is
// charged to the victim's clock before the collective, recorded as
// "<name>_retry", and the charged breakdown still sums to wall-clock.
func TestFlakyCollectiveDelayChargedToClock(t *testing.T) {
	c := testCluster(2)
	c.Inject = &testInjector{delays: map[string]float64{"1/ar": 0.25}}
	g := c.WorldGroup()
	ranks, err := c.RunCollect(func(r *Rank) error {
		r.AllReduce(g, "ar", nil, 4)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ranks[1].Trace.Total("ar_retry"); got != 0.25 {
		t.Fatalf("retry span = %v, want 0.25", got)
	}
	if ranks[0].Clock < 0.25 {
		t.Fatalf("BSP peer must absorb the retry delay, clock=%v", ranks[0].Clock)
	}
	for _, r := range ranks {
		var sum float64
		for _, d := range r.Trace.Breakdown() {
			sum += d
		}
		if diff := sum - r.Clock; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("rank %d breakdown %v != clock %v", r.ID, sum, r.Clock)
		}
	}
}

// TestDesyncReturnsErrorNotDeadlock: a buggy SPMD body where one rank
// issues fewer collectives than its peers used to deadlock Run; now the
// peers get a desync ErrPeerFailed once the short rank returns.
func TestDesyncReturnsErrorNotDeadlock(t *testing.T) {
	c := testCluster(3)
	g := c.WorldGroup()
	err := c.Run(func(r *Rank) error {
		r.Barrier(g)
		if r.ID == 0 {
			return nil // one barrier short
		}
		r.Barrier(g)
		return nil
	})
	if !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("desync must surface as ErrPeerFailed, got: %v", err)
	}
	if !strings.Contains(err.Error(), "desync") {
		t.Fatalf("error should call out the desync, got: %v", err)
	}
}

// TestCleanRunsReusableAfterInjection: a cluster whose Runs complete
// cleanly stays reusable step after step (the DistTrainer pattern), and
// the failure registry stays empty.
func TestCleanRunsReusableAfterInjection(t *testing.T) {
	c := testCluster(4)
	c.Inject = &testInjector{scale: map[int]float64{1: 2}}
	g := c.WorldGroup()
	for step := 0; step < 5; step++ {
		err := c.Run(func(r *Rank) error {
			r.Compute("gemm", 0.01)
			if got := r.AllReduce(g, "ar", []float32{1}, 4)[0]; got != 4 {
				return fmt.Errorf("step %d: sum=%v", step, got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(c.FailedRanks()) != 0 {
			t.Fatalf("step %d: spurious failures: %v", step, c.FailedRanks())
		}
	}
}

// TestLeakedHandleReportNamesIssueClock pins the upgraded leak report:
// name plus issue-time clock.
func TestLeakedHandleReportNamesIssueClock(t *testing.T) {
	c := testCluster(2)
	g := c.WorldGroup()
	err := c.Run(func(r *Rank) error {
		r.Compute("warmup", 0.125)
		h := r.AlltoAllVAsync(g, "dropped_a2a", evenParts(2, 1<<10))
		if r.ID == 1 {
			h.Wait()
		}
		return nil
	})
	if err == nil {
		t.Fatal("leak must surface")
	}
	if !strings.Contains(err.Error(), "dropped_a2a@0.125000s") {
		t.Fatalf("leak report must carry name and issue clock, got: %v", err)
	}
}

// panicEngine is the analytic cost model with an all-reduce and an
// all-to-all-v that panic: the member or goroutine that prices the
// collective panics.
type panicEngine struct{ netsim.CostEngine }

func (panicEngine) AllReduce([]int, int64) netsim.Cost { panic("pricing fault") }

func (panicEngine) AlltoAllV([]int, [][]int64) netsim.Cost { panic("pricing fault") }

// TestReducerPanicDoesNotDeadlockPeers: a panic while a collective is
// priced — at the rendezvous for a blocking one, on a pricing goroutine
// for a non-blocking one — must fail every member with ErrPeerFailed at
// its next read of the flight (its Wait, or a later blocking collective
// queued behind it on the comm stream), naming the collective.
func TestReducerPanicDoesNotDeadlockPeers(t *testing.T) {
	for _, tc := range []struct {
		name, read string // the collective whose pricing panics, the one that reads it
		body       func(r *Rank, g *Group)
	}{
		{"ar", "ar", func(r *Rank, g *Group) { r.AllReduce(g, "ar", nil, 4) }},
		{"ar", "ar", func(r *Rank, g *Group) { r.AllReduceAsync(g, "ar", nil, 4).Wait() }},
		{"a2a", "a2a", func(r *Rank, g *Group) { r.AlltoAllVAsync(g, "a2a", evenParts(3, 4)).Wait() }},
		{"ar", "barrier", func(r *Rank, g *Group) {
			h := r.AllReduceAsync(g, "ar", nil, 4)
			r.Barrier(g)
			h.Wait()
		}},
	} {
		c := testCluster(3)
		c.Engine = panicEngine{c.Net}
		g := c.WorldGroup()
		err := c.Run(func(r *Rank) error {
			tc.body(r, g)
			return nil
		})
		if err == nil {
			t.Fatalf("%s read by %s: pricing panic must surface, not deadlock", tc.name, tc.read)
		}
		if !errors.Is(err, ErrPeerFailed) {
			t.Fatalf("%s read by %s: members must see ErrPeerFailed: %v", tc.name, tc.read, err)
		}
		if !strings.Contains(err.Error(), tc.name+" pricing panicked: pricing fault") {
			t.Fatalf("%s read by %s: the panic must be reported with its collective, got: %v", tc.name, tc.read, err)
		}
		for id := 0; id < 3; id++ {
			if want := fmt.Sprintf("rank %d: %s aborted", id, tc.read); !strings.Contains(err.Error(), want) {
				t.Fatalf("%s read by %s: rank %d must fail at its read, got: %v", tc.name, tc.read, id, err)
			}
		}
	}
}

// slowEngine is the analytic cost model with an all-to-all-v that takes
// host time, counting the queries it has answered.
type slowEngine struct {
	netsim.CostEngine
	answered atomic.Int32
}

func (e *slowEngine) AlltoAllV(ranks []int, bytes [][]int64) netsim.Cost {
	time.Sleep(20 * time.Millisecond)
	defer e.answered.Add(1)
	return e.CostEngine.AlltoAllV(ranks, bytes)
}

// TestCrashMidExchangeLeavesNoPricer: a rank crashed by fault injection
// while its chunked exchanges are still being priced must not leave a
// pricing goroutine behind — Run returns only once every exchange it
// issued has been priced, and the goroutine count is back where it was.
func TestCrashMidExchangeLeavesNoPricer(t *testing.T) {
	const world, chunks = 4, 4
	base := runtime.NumGoroutine()
	c := testCluster(world)
	eng := &slowEngine{CostEngine: c.Net}
	c.Engine = eng
	c.Inject = &testInjector{crashClock: map[int]float64{2: 0.5}}
	g := c.WorldGroup()
	err := c.Run(func(r *Rank) error {
		for i := 0; i < chunks; i++ {
			r.AlltoAllVChunk(g, "dispatch", evenParts(world, 1<<16), nil, chunks)
		}
		r.Compute("gemm", 1) // rank 2's clock passes its crash point
		r.Compute("gemm", 1) // and it crashes here, its exchanges in flight
		r.Barrier(g)
		return nil
	})
	if !errors.Is(err, ErrRankCrashed) || !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("want the crash and its peers' aborts, got: %v", err)
	}
	if got := eng.answered.Load(); got != chunks {
		t.Fatalf("Run returned with %d of %d exchanges priced", got, chunks)
	}
	// Goroutines that have signalled Run may still be exiting.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
		}
	}
}
