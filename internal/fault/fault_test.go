package fault

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"xmoe/internal/simrt"
	"xmoe/internal/topology"
)

// roundTripSpec exercises every event kind and option of the spec syntax.
const roundTripSpec = "crash:r2@s3,crash:r0@t1.5,straggler:r1@s0:x2,flaky:r3@s1:t0.01,link:inter@s2:x4," +
	"straggler:r2@s1:x1.5:n3,flaky:r0@s2:t0.02:n2:b3,link:rack@s0:x8:n2"

func TestParsePlanRoundTrip(t *testing.T) {
	spec := roundTripSpec
	plan, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Events) != 8 {
		t.Fatalf("parsed %d events, want 8", len(plan.Events))
	}
	if got := plan.String(); got != spec {
		t.Fatalf("round-trip mismatch:\n got %q\nwant %q", got, spec)
	}
	e := plan.Events[1]
	if e.Kind != Crash || e.Step != -1 || e.AtClock != 1.5 {
		t.Fatalf("clock crash parsed wrong: %+v", e)
	}
	if s := plan.Events[2]; s.Kind != Straggler || s.Scale != 2 || s.ForSteps != 0 {
		t.Fatalf("straggler parsed wrong: %+v (persistent window expected)", s)
	}
	if f := plan.Events[3]; f.Kind != Flaky || f.Retries != 1 || f.Backoff != 2 {
		t.Fatalf("flaky defaults wrong: %+v", f)
	}
	if l := plan.Events[4]; l.Kind != Link || l.Class != topology.LinkInterNode || l.ForSteps != 1 {
		t.Fatalf("link parsed wrong: %+v", l)
	}
	if p, err := ParsePlan("  "); err != nil || len(p.Events) != 0 {
		t.Fatalf("blank spec must parse to empty plan, got %v / %v", p, err)
	}
}

// malformedSpecs are specs ParsePlan must reject.
var malformedSpecs = []string{
	"crash",                    // no target
	"crash:2@s1",               // rank missing r prefix
	"crash:r-1@s1",             // negative rank
	"crash:r0@x5",              // bad when
	"crash:r0@s1:x2",           // crash takes no options
	"straggler:r0@s1",          // missing scale
	"straggler:r0@t1.5:x2",     // @t only for crash
	"straggler:r0@s1:x0",       // non-positive scale
	"flaky:r0@s1",              // missing timeout
	"flaky:r0@s1:t0",           // non-positive timeout
	"link:fast@s1:x2",          // unknown class
	"link:inter@s1",            // missing derate
	"link:inter@s1:x1",         // derate must exceed 1
	"warp:r0@s1",               // unknown kind
	"straggler:r0@s1:x2:q3",    // unknown option
	"crash:r0@s1,,crash:r1@s2", // empty event
	// Non-finite values pass the range checks and then never fire.
	"link:inter@s0:xNaN",
	"link:inter@s0:xInf",
	"straggler:r0@s0:xNaN",
	"straggler:r0@s0:x+Inf",
	"flaky:r0@s0:tNaN",
	"flaky:r0@s0:t1:bNaN",
	"flaky:r0@s0:t1:bInf",
	"crash:r0@tNaN",
	"crash:r0@tInf",
	"spares:9223372036854775807,spares:1", // pool size overflows
	// Overlapping link windows compound to +Inf.
	"link:inter@s0:x1e200,link:inter@s0:x1e200",
	"link:rack@s0:x1e300:n5,link:inter@s1:x2,link:rack@s3:x1e10",
}

func TestParsePlanRejectsMalformed(t *testing.T) {
	for _, bad := range malformedSpecs {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) should fail", bad)
		} else if strings.Contains(bad, "NaN") || strings.Contains(bad, "Inf") {
			if tok := bad[strings.LastIndex(bad, ":")+1:]; !strings.Contains(err.Error(), tok) {
				t.Errorf("ParsePlan(%q) error %q does not name the token", bad, err)
			}
		}
	}
}

// A plan whose overlapping link events compound past float64 is refused
// with an error naming the class and every clause that overlaps, while
// the same derates in disjoint windows stay accepted.
func TestParsePlanRejectsInfiniteDerate(t *testing.T) {
	_, err := ParsePlan("link:inter@s0:x1e200,link:rack@s0:x1e200,link:inter@s0:x1e200:n2")
	if err == nil {
		t.Fatal("compounded x1e200 x1e200 on inter accepted")
	}
	for _, want := range []string{"inter", "link:inter@s0:x1e200,link:inter@s0:x1e200:n2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "rack") {
		t.Errorf("error %q names the rack clause, which does not overlap on inter", err)
	}
	plan, err := ParsePlan("link:inter@s0:x1e200,link:inter@s1:x1e200")
	if err != nil {
		t.Fatalf("disjoint windows rejected: %v", err)
	}
	if d := NewInjector(plan, 1).LinkDerates(1); d[topology.LinkInterNode] != 1e200 {
		t.Errorf("step 1 inter derate %g, want 1e200", d[topology.LinkInterNode])
	}
}

// FuzzParsePlan: ParsePlan either rejects a spec or returns a plan whose
// every value is finite and in range for its kind, whose compounded link
// derates are finite at every step, and whose String re-parses to an equal
// plan.
func FuzzParsePlan(f *testing.F) {
	f.Add(roundTripSpec)
	f.Add("spares:2,crash:r1@s3,crash:r4@t0")
	for _, s := range malformedSpecs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParsePlan(spec)
		if err != nil {
			return
		}
		if plan.Spares < 0 {
			t.Fatalf("ParsePlan(%q): negative spares %d", spec, plan.Spares)
		}
		for _, e := range plan.Events {
			for _, v := range []float64{e.AtClock, e.Scale, e.Timeout, e.Backoff, e.Derate} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("ParsePlan(%q): non-finite value in %+v", spec, e)
				}
			}
			ok := e.Rank >= 0
			switch e.Kind {
			case Crash:
				ok = ok && (e.Step >= 0 || e.AtClock >= 0)
			case Straggler:
				ok = ok && e.Step >= 0 && e.Scale > 0 && e.ForSteps >= 0
			case Flaky:
				ok = ok && e.Step >= 0 && e.Timeout > 0 && e.Backoff > 0 && e.Retries >= 1
			case Link:
				ok = ok && e.Step >= 0 && e.Derate > 1 && e.ForSteps >= 1
			default:
				ok = false
			}
			if !ok {
				t.Fatalf("ParsePlan(%q): out-of-range event %+v", spec, e)
			}
		}
		// LinkDerates is constant between event starts and ends, so
		// those steps (and step 0) stand for every step.
		inj := NewInjector(plan, 0)
		steps := []int{0}
		for _, e := range plan.Events {
			steps = append(steps, e.Step, e.Step+e.ForSteps)
		}
		for _, s := range steps {
			for c, d := range inj.LinkDerates(s) {
				if math.IsInf(d, 0) || math.IsNaN(d) {
					t.Fatalf("ParsePlan(%q): %v derate %g at step %d", spec, c, d, s)
				}
			}
		}
		again, err := ParsePlan(plan.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q).String() = %q does not re-parse: %v", spec, plan.String(), err)
		}
		if !reflect.DeepEqual(plan, again) {
			t.Fatalf("ParsePlan(%q) round trip through %q:\n got %+v\nwant %+v", spec, plan.String(), again, plan)
		}
	})
}

func TestPlanCrashesDeterministicAndPoisson(t *testing.T) {
	a := PlanCrashes(9, 8, 1000, 50)
	b := PlanCrashes(9, 8, 1000, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must give identical crash schedules")
	}
	c := PlanCrashes(10, 8, 1000, 50)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should give different schedules")
	}
	// ~horizon/mtbf arrivals in expectation; allow a wide band.
	if n := len(a.Events); n < 5 || n > 60 {
		t.Fatalf("got %d crashes over 20 expected MTBFs", n)
	}
	times := a.CrashTimes()
	if len(times) != len(a.Events) {
		t.Fatalf("CrashTimes lost events: %d vs %d", len(times), len(a.Events))
	}
	for i, ts := range times {
		if ts <= 0 || ts >= 1000 {
			t.Fatalf("crash time %v outside horizon", ts)
		}
		if i > 0 && ts < times[i-1] {
			t.Fatal("CrashTimes must be sorted")
		}
	}
	for _, e := range a.Events {
		if e.Rank < 0 || e.Rank >= 8 {
			t.Fatalf("victim %d outside world", e.Rank)
		}
	}
	if p := PlanCrashes(9, 8, 1000, 0); len(p.Events) != 0 {
		t.Fatal("mtbf<=0 must plan no crashes")
	}
}

func TestFlakyDelayBackoffSum(t *testing.T) {
	e := Event{Kind: Flaky, Timeout: 0.01, Retries: 3, Backoff: 2}
	if got, want := e.Delay(), 0.01*(1+2+4); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Delay = %v, want %v", got, want)
	}
}

func TestYoungDalyAndGoodput(t *testing.T) {
	if got, want := YoungDaly(2, 100), 20.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("YoungDaly(2,100) = %v, want %v", got, want)
	}
	if YoungDaly(0, 100) != 0 || YoungDaly(1, 0) != 0 {
		t.Fatal("degenerate Young/Daly inputs must return 0")
	}
	if got := Goodput(80, 100); got != 0.8 {
		t.Fatalf("Goodput = %v", got)
	}
	if Goodput(1, 0) != 0 {
		t.Fatal("zero wall-clock goodput must be 0")
	}
}

// TestInjectorArmWindows pins the per-step arming: stragglers and flaky
// delays apply only inside their windows, step-crashes only at their
// step, and clock-crashes rebase into the step's local time frame.
func TestInjectorArmWindows(t *testing.T) {
	plan, err := ParsePlan("straggler:r1@s2:x3:n2,flaky:r0@s1:t0.5,crash:r2@s4")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(plan, 4)

	inj.Arm(1, 0)
	if inj.ComputeScale(1) != 1 {
		t.Fatal("straggler must not fire before its window")
	}
	if d := inj.CollectiveDelay(0, "a2a", 0); d != 0.5 {
		t.Fatalf("flaky delay = %v, want 0.5", d)
	}
	if d := inj.CollectiveDelay(0, "a2a", 0); d != 0 {
		t.Fatal("flaky delay must be consumed once per step")
	}
	if inj.CrashError(2, 0) != nil {
		t.Fatal("crash must wait for its step")
	}

	inj.Arm(2, 10)
	if inj.ComputeScale(1) != 3 {
		t.Fatal("straggler window must be active at step 2")
	}
	inj.Arm(4, 20)
	if inj.ComputeScale(1) != 1 {
		t.Fatal("straggler window must have closed by step 4")
	}
	err4 := inj.CrashError(2, 0)
	if !errors.Is(err4, simrt.ErrRankCrashed) {
		t.Fatalf("step-4 crash must fire: %v", err4)
	}
	if got := inj.crashedRanks(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("crashedRanks = %v", got)
	}
	// Once crashed, it stays dead but never re-arms.
	inj.Arm(5, 30)
	if inj.CrashError(2, 0) != nil {
		t.Fatal("a consumed crash must not re-arm")
	}
}

// TestInjectorClockCrashRebasing: a clock-driven crash fires in the step
// whose local clock reaches it, with the elapsed offset subtracted.
func TestInjectorClockCrashRebasing(t *testing.T) {
	plan, _ := ParsePlan("crash:r0@t5.0")
	inj := NewInjector(plan, 2)
	inj.Arm(0, 0)
	if inj.CrashError(0, 4.9) != nil {
		t.Fatal("crash at t=5 must not fire at local clock 4.9, elapsed 0")
	}
	if inj.CrashError(0, 5.1) == nil {
		t.Fatal("crash must fire once the local clock passes it")
	}
	// Fresh injector: step boundary passed the crash time without hitting
	// it (elapsed already beyond) -> overdue, fires immediately.
	inj2 := NewInjector(plan, 2)
	inj2.Arm(3, 6.0)
	if inj2.CrashError(0, 0) == nil {
		t.Fatal("overdue clock crash must fire at the next step's first op")
	}
}

func TestInjectorLinkDerates(t *testing.T) {
	plan, _ := ParsePlan("link:inter@s2:x4:n2,link:inter@s3:x2,link:rack@s0:x8")
	inj := NewInjector(plan, 4)
	if d := inj.LinkDerates(0); d[topology.LinkInterNode] != 0 || d[topology.LinkCrossRack] != 8 {
		t.Fatalf("step 0 derates = %v", d)
	}
	if d := inj.LinkDerates(1); d != nil {
		t.Fatalf("all one-step windows closed at step 1, got %v", d)
	}
	if d := inj.LinkDerates(3); d[topology.LinkInterNode] != 8 { // 4 * 2 compound
		t.Fatalf("overlapping derates must compound: %v", d)
	}
	if d := inj.LinkDerates(4); d[topology.LinkInterNode] != 0 {
		t.Fatalf("expired window still derates: %v", d)
	}
	empty := NewInjector(Plan{}, 4)
	if d := empty.LinkDerates(0); d != nil {
		t.Fatalf("healthy plan must return nil derates, got %v", d)
	}
}

// TestInjectorDrivesSimrtCluster is the integration check: a planned
// crash injected through the real runtime aborts the victim with
// ErrRankCrashed and every survivor with ErrPeerFailed, twice in a row
// with identical outcomes (the determinism contract).
func TestInjectorDrivesSimrtCluster(t *testing.T) {
	run := func() (error, []int) {
		plan, err := ParsePlan("crash:r1@s0,straggler:r0@s0:x2")
		if err != nil {
			t.Fatal(err)
		}
		inj := NewInjector(plan, 4)
		c := simrt.NewCluster(topology.Frontier(), 4, 7)
		c.Net.DisableCongestion = true
		c.Inject = inj
		g := c.WorldGroup()
		inj.Arm(0, 0)
		runErr := c.Run(func(r *simrt.Rank) error {
			r.Compute("gemm", 0.01)
			r.AllReduce(g, "ar", nil, 4)
			return nil
		})
		return runErr, inj.crashedRanks()
	}
	err1, crashed1 := run()
	err2, crashed2 := run()
	if !errors.Is(err1, simrt.ErrRankCrashed) || !errors.Is(err1, simrt.ErrPeerFailed) {
		t.Fatalf("want crash + peer-failed, got: %v", err1)
	}
	// Which abort path each survivor takes (pre-entry check vs rendezvous
	// wakeup) depends on goroutine scheduling, so error text varies; the
	// outcome set — who crashed, who aborted — must not.
	if !errors.Is(err2, simrt.ErrRankCrashed) || !errors.Is(err2, simrt.ErrPeerFailed) {
		t.Fatalf("second run must reproduce the outcome: %v", err2)
	}
	if !reflect.DeepEqual(crashed1, crashed2) || len(crashed1) != 1 || crashed1[0] != 1 {
		t.Fatalf("crashed ranks %v / %v, want [1] both times", crashed1, crashed2)
	}
}

// TestPermanentStragglerWindow: omitting :n<steps> makes a straggler
// permanent — the scale applies from its start step to the end of the
// run, surviving arbitrarily many re-arms.
func TestPermanentStragglerWindow(t *testing.T) {
	plan, err := ParsePlan("straggler:r1@s3:x2")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(plan, 4)
	for _, step := range []int{0, 2} {
		inj.Arm(step, 0)
		if s := inj.ComputeScale(1); s != 1 {
			t.Fatalf("step %d: scale %v before the window opens, want 1", step, s)
		}
	}
	for _, step := range []int{3, 4, 100, 100000} {
		inj.Arm(step, 0)
		if s := inj.ComputeScale(1); s != 2 {
			t.Fatalf("step %d: scale %v, want the permanent 2", step, s)
		}
	}
}

// TestOverlappingWindowsCompound: two straggler windows on the same rank
// multiply while both are open, and a link derate overlapping them is
// reported independently — compute faults never leak into link state or
// vice versa. Overlapping derates on one class also compound.
func TestOverlappingWindowsCompound(t *testing.T) {
	plan, err := ParsePlan("straggler:r1@s3:x2,straggler:r1@s4:x3:n2,link:inter@s3:x4:n3,link:inter@s4:x2")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(plan, 4)

	wantScale := map[int]float64{2: 1, 3: 2, 4: 6, 5: 6, 6: 2}
	wantInter := map[int]float64{2: 0, 3: 4, 4: 8, 5: 4, 6: 0}
	for step := 2; step <= 6; step++ {
		inj.Arm(step, 0)
		if s := inj.ComputeScale(1); s != wantScale[step] {
			t.Errorf("step %d: compute scale %v, want %v", step, s, wantScale[step])
		}
		d := inj.LinkDerates(step)
		if got := d[topology.LinkInterNode]; got != wantInter[step] {
			t.Errorf("step %d: inter derate %v, want %v", step, got, wantInter[step])
		}
		if wantInter[step] == 0 && d != nil {
			t.Errorf("step %d: derate map %v, want nil when all links are healthy", step, d)
		}
		if s := inj.ComputeScale(0); s != 1 {
			t.Errorf("step %d: rank 0 scale %v, the faults target rank 1 only", step, s)
		}
	}
}

// TestParsePlanSpares: the plan-level spares:<n> token sizes the
// hot-spare pool, accumulates across repeats, round-trips through
// String, and rejects malformed counts.
func TestParsePlanSpares(t *testing.T) {
	plan, err := ParsePlan("spares:2,crash:r1@s3")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Spares != 2 || len(plan.Events) != 1 {
		t.Fatalf("got spares %d with %d events, want 2 and 1", plan.Spares, len(plan.Events))
	}
	if got, want := plan.String(), "spares:2,crash:r1@s3"; got != want {
		t.Fatalf("round-trip %q, want %q", got, want)
	}
	if p2, err := ParsePlan(plan.String()); err != nil || p2.Spares != 2 {
		t.Fatalf("re-parse: %v spares %d", err, p2.Spares)
	}
	if p, err := ParsePlan("spares:1,spares:2"); err != nil || p.Spares != 3 {
		t.Fatalf("repeat tokens must accumulate: %v spares %d, want 3", err, p.Spares)
	}
	if p, err := ParsePlan("crash:r0@s1"); err != nil || p.Spares != 0 {
		t.Fatalf("no token means no spares: %v spares %d", err, p.Spares)
	}
	for _, bad := range []string{"spares:-1", "spares:x", "spares:", "spares:1.5"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) should fail", bad)
		}
	}
}

// crashedRanks returns the ranks whose planned crashes have fired so
// far, sorted. Call only between Runs.
func (inj *Injector) crashedRanks() []int {
	var out []int
	for r, c := range inj.crashed {
		if c {
			out = append(out, r)
		}
	}
	return out
}
