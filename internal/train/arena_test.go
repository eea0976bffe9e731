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
// a step may exceed the measured value below by at most 10 %.
func TestDistTrainerArenaSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("23 steps at the benchmark's shape; the race detector makes them minutes")
	}
	const steps = 10
	// Per-step bytes of the replay, measured on amd64 with go1.24 (pft
	// 33.0 MB, rbd 37.6 MB), plus 10 %: the exchange staging that stays
	// allocate-fresh.
	bounds := map[string]uint64{"pft": 36_300_000, "rbd": 41_300_000}
	// GC and scheduling noise; one leaked [512, 128] buffer a rank a step
	// is 2 MiB a step, 20 MiB over the replay.
	const heapSlack = 1 << 20
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
