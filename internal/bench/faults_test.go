package bench

import "testing"

// TestReplayGoodput checks replayGoodput against answers worked out by
// hand; every time is a small binary fraction, so the walls are exact.
func TestReplayGoodput(t *testing.T) {
	cases := []struct {
		name          string
		stepSec, ckpt float64
		every, steps  int
		crashes       []float64
		async         bool
		want          float64
	}{
		// Writes after steps 4 and 8 of 10 (none after the last), each a
		// full stall: steps·s / (steps·s + writes·c).
		{"blocking without a crash", 0.5, 0.25, 4, 10, nil, false, 10 * 0.5 / (10*0.5 + 2*0.25)},
		// The step-2 write streams over [2, 5); the step-4 write is issued
		// at 4, stalls 1 s for the first to land, then streams over
		// [5, 8). The crash at 6.5, during step 6, discards it: the run
		// rolls back to step 2, loses steps 3..5 (3 s), reads the
		// checkpoint until 9.5, and finishes step 6 at 13.5 after a
		// step-4 write issued at 11.5 that nothing stalls on.
		{"async crash mid-write", 1, 3, 2, 6, []float64{6.5}, true, 6 / 13.5},
	}
	for _, c := range cases {
		got := replayGoodput(c.stepSec, c.ckpt, c.every, c.steps, c.crashes, c.async)
		if got != c.want {
			t.Errorf("%s: goodput %v, want %v", c.name, got, c.want)
		}
	}
}
