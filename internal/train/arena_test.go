package train

import (
	"runtime"
	"testing"
)

// TestDistTrainerArenaSteadyState holds the numeric step's arena balance
// at the benchmark's shape. After the warm-up steps, ten steps fill the
// rank arenas to what those steps need at once: a rank whose received
// rows first cross a power-of-two bucket takes new buffers of the larger
// bucket and keeps its smaller ones, so this window may grow the heap.
// The same ten steps, replayed from a checkpoint, take the same buffers
// again and must not grow it: a Put of a buffer no Get handed out grows an
// arena by one buffer a step and fails the heap check. The replay's bytes
// a step may exceed the measured value below by at most 10 %, and the
// live heap after the warm-up may exceed the value measured before the
// exchange payloads were lent by at most liveSlack.
func TestDistTrainerArenaSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("23 steps at the benchmark's shape; the race detector makes them minutes")
	}
	const steps = 10
	// Per-step bytes of the replay, measured on amd64 with go1.24 (pft
	// 1.35 MB, rbd 2.08 MB), plus 10 %: the step's small bookkeeping
	// (routing, layouts, part lists, metadata). Every exchange payload is
	// lent from an arena and goes back once its receivers release it.
	bounds := map[string]uint64{"pft": 1_490_000, "rbd": 2_290_000}
	// GC and scheduling noise; one leaked [512, 128] buffer a rank a step
	// is 2 MiB a step, 20 MiB over the replay.
	const heapSlack = 1 << 20
	// The live heap after the warm-up with the payloads allocated fresh
	// (pft 99.9 MB, rbd 93.7 MB), plus liveSlack for the lent payloads the
	// arenas now keep (measured +15.7 / +18.9 MB, whatever GOMAXPROCS). A
	// lending rule that returned the payloads only when the Run ends keeps
	// a step's staging live at once: +44.0 MB for both, which fails.
	const liveSlack = 28 << 20
	liveBounds := map[string]uint64{"pft": 99_903_632 + liveSlack, "rbd": 93_691_520 + liveSlack}
	for _, transport := range []string{"pft", "rbd"} {
		t.Run(transport, func(t *testing.T) {
			tr := warmTrainer(t, transport)
			ck := tr.Checkpoint()
			trainSteps(t, tr, steps)
			if err := tr.Restore(ck); err != nil {
				t.Fatal(err)
			}
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			heap0, total0 := ms.HeapAlloc, ms.TotalAlloc
			if heap0 > liveBounds[transport] {
				t.Errorf("live heap after the warm-up %d B, want <= %d: the arenas keep more staging than the steps need at once",
					heap0, liveBounds[transport])
			}
			trainSteps(t, tr, steps)
			runtime.GC()
			runtime.ReadMemStats(&ms)
			runtime.KeepAlive(tr) // its arenas are part of the live heap measured
			perStep := (ms.TotalAlloc - total0) / steps
			t.Logf("replay: live heap %d -> %d B, %d B allocated a step", heap0, ms.HeapAlloc, perStep)
			if ms.HeapAlloc > heap0+heapSlack {
				t.Errorf("the replayed steps grew the live heap %d -> %d B (slack %d B): an arena keeps buffers it did not hand out",
					heap0, ms.HeapAlloc, heapSlack)
			}
			if perStep > bounds[transport] {
				t.Errorf("%d B allocated a step, want <= %d", perStep, bounds[transport])
			}
		})
	}
}
