package trace

import (
	"sync"
	"testing"
)

func TestRecordAndTotals(t *testing.T) {
	var r Recorder
	r.Record("gate", 0, 1.5)
	r.Record("dispatch", 1.5, 2.0)
	r.Record("gate", 3.5, 0.5)
	if got := r.Total("gate"); got != 2.0 {
		t.Fatalf("Total(gate) = %f, want 2.0", got)
	}
	if got := r.Total("missing"); got != 0 {
		t.Fatalf("Total(missing) = %f, want 0", got)
	}
	b := r.Breakdown()
	if b["gate"] != 2.0 || b["dispatch"] != 2.0 {
		t.Fatalf("Breakdown = %v", b)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "dispatch" || names[1] != "gate" {
		t.Fatalf("Names = %v, want sorted [dispatch gate]", names)
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Name != "gate" || evs[1].Start != 1.5 {
		t.Fatalf("Events = %v", evs)
	}
}

// TestOverlappedSpans pins the split accounting of non-blocking
// collectives: overlapped spans carry the physical comm timeline and stay
// out of Breakdown/Total, so clock-charged sums still equal wall-clock.
func TestOverlappedSpans(t *testing.T) {
	var r Recorder
	r.Record("gemm", 0, 3.0)
	r.RecordOverlapped("a2a", 0, 2.5)
	r.Record("a2a", 3.0, 0.5) // uncovered remainder charged by Wait
	if got := r.Total("a2a"); got != 0.5 {
		t.Fatalf("Total(a2a) = %f, want only the uncovered 0.5", got)
	}
	if got := r.OverlappedTotal("a2a"); got != 2.5 {
		t.Fatalf("OverlappedTotal(a2a) = %f, want 2.5", got)
	}
	if got := r.OverlappedTotal("gemm"); got != 0 {
		t.Fatalf("OverlappedTotal(gemm) = %f, want 0", got)
	}
	b := r.Breakdown()
	if b["gemm"] != 3.0 || b["a2a"] != 0.5 {
		t.Fatalf("Breakdown = %v", b)
	}
	var wall float64
	for _, d := range b {
		wall += d
	}
	if wall != 3.5 {
		t.Fatalf("clock-charged breakdown sums to %f, want wall-clock 3.5", wall)
	}
	ob := r.OverlapBreakdown()
	if len(ob) != 1 || ob["a2a"] != 2.5 {
		t.Fatalf("OverlapBreakdown = %v", ob)
	}
	evs := r.Events()
	if len(evs) != 3 || !evs[1].Overlap || evs[2].Overlap {
		t.Fatalf("Events overlap flags wrong: %+v", evs)
	}
}

// TestMarks pins the instantaneous-event contract: marks appear in
// Events/Marks/MarkCount but never perturb the clock-charged aggregates
// (Breakdown keys, ChargedTotal, Total, Names), so fault and checkpoint
// annotations can share the timeline with per-stage spans for free.
func TestMarks(t *testing.T) {
	var r Recorder
	r.Record("gemm", 0, 3.0)
	r.Mark("fault:crash", 1.0)
	r.Mark("ckpt", 2.0)
	r.Mark("ckpt", 2.5)
	if got := r.ChargedTotal(); got != 3.0 {
		t.Fatalf("ChargedTotal = %f, want 3.0 (marks must not count)", got)
	}
	if got := r.Total("ckpt"); got != 0 {
		t.Fatalf("Total(ckpt) = %f, want 0", got)
	}
	b := r.Breakdown()
	if len(b) != 1 || b["gemm"] != 3.0 {
		t.Fatalf("Breakdown = %v, want only {gemm: 3.0}", b)
	}
	names := r.Names()
	if len(names) != 1 || names[0] != "gemm" {
		t.Fatalf("Names = %v, marks must not introduce zero-valued keys", names)
	}
	marks := r.Marks()
	if len(marks) != 3 || marks[0].Name != "fault:crash" || marks[0].Start != 1.0 {
		t.Fatalf("Marks = %+v", marks)
	}
	for _, m := range marks {
		if !m.Mark || m.Dur != 0 {
			t.Fatalf("mark event malformed: %+v", m)
		}
	}
	if got := r.MarkCount("ckpt"); got != 2 {
		t.Fatalf("MarkCount(ckpt) = %d, want 2", got)
	}
	if got := r.MarkCount("missing"); got != 0 {
		t.Fatalf("MarkCount(missing) = %d, want 0", got)
	}
	if evs := r.Events(); len(evs) != 4 {
		t.Fatalf("Events must include marks, got %d", len(evs))
	}
	if got := Merge([]*Recorder{&r}, false); len(got) != 1 || got["gemm"] != 3.0 {
		t.Fatalf("Merge with marks = %v", got)
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	var r Recorder
	r.Record("a", 0, 1)
	evs := r.Events()
	evs[0].Name = "mutated"
	if r.Events()[0].Name != "a" {
		t.Fatal("Events must return a copy")
	}
}

func TestConcurrentRecord(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Record("x", 0, 1)
			}
		}()
	}
	wg.Wait()
	if got := r.Total("x"); got != 800 {
		t.Fatalf("concurrent total = %f, want 800", got)
	}
}

func TestMerge(t *testing.T) {
	a, b := &Recorder{}, &Recorder{}
	a.Record("gate", 0, 1)
	a.Record("a2a", 1, 3)
	b.Record("gate", 0, 3)
	sum := Merge([]*Recorder{a, b}, false)
	if sum["gate"] != 4 || sum["a2a"] != 3 {
		t.Fatalf("Merge sum = %v", sum)
	}
	avg := Merge([]*Recorder{a, b}, true)
	if avg["gate"] != 2 || avg["a2a"] != 1.5 {
		t.Fatalf("Merge avg = %v", avg)
	}
	if got := Merge(nil, true); len(got) != 0 {
		t.Fatalf("Merge(nil) = %v", got)
	}
}
