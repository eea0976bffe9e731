package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the fan-out of parallel tensor kernels. It defaults to
// GOMAXPROCS and can be lowered for deterministic single-threaded
// profiling. Kernel goroutines read it concurrently with SetMaxWorkers
// callers, so it is atomic.
var maxWorkers atomic.Int64

func init() {
	maxWorkers.Store(int64(runtime.GOMAXPROCS(0)))
}

// SetMaxWorkers sets the worker bound for parallel kernels and returns the
// previous value. n < 1 is treated as 1.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(maxWorkers.Swap(int64(n)))
}

// pfTask is one ParallelFor invocation flowing through the persistent
// worker pool. Workers and the caller claim chunks from a shared atomic
// cursor, so a task finishes even when every pool worker is busy (the
// caller always participates). Tasks are recycled through a sync.Pool;
// refs counts the goroutines that may still touch the task, and the last
// one to release it returns it to the pool.
type pfTask struct {
	fn     func(lo, hi int)
	off    int
	n      int
	chunk  int
	chunks int
	cursor atomic.Int64
	refs   atomic.Int32
	wg     sync.WaitGroup
}

var taskPool = sync.Pool{New: func() any { return new(pfTask) }}

// run claims and executes chunks until the cursor is exhausted.
func (t *pfTask) run() {
	for {
		i := int(t.cursor.Add(1)) - 1
		if i >= t.chunks {
			return
		}
		lo := i * t.chunk
		hi := lo + t.chunk
		if hi > t.n {
			hi = t.n
		}
		t.fn(t.off+lo, t.off+hi)
		t.wg.Done()
	}
}

// release drops one reference; the last holder recycles the task.
func (t *pfTask) release() {
	if t.refs.Add(-1) == 0 {
		t.fn = nil
		t.cursor.Store(0)
		taskPool.Put(t)
	}
}

// workCh feeds tasks to the persistent workers. Sends are non-blocking:
// when the pool is saturated the caller simply executes its own chunks
// inline, so parallelism degrades gracefully instead of spawning
// goroutines. The buffer lets a burst of rank goroutines enqueue work
// before any worker wakes.
var (
	workCh    chan *pfTask
	startPool sync.Once
)

// poolWorkers is the number of persistent workers: one per processor,
// minus one for the calling goroutine which always participates. With
// GOMAXPROCS=1 the pool is empty and every kernel runs inline on the
// caller — the degenerate single-threaded mode stays allocation- and
// scheduler-free.
func poolWorkers() int { return runtime.GOMAXPROCS(0) - 1 }

// ensurePool starts the persistent workers on first parallel use. The
// pool is global and sized to the machine rather than per caller: when
// simrt runs hundreds of rank goroutines that each launch kernels, total
// kernel concurrency stays bounded by GOMAXPROCS instead of
// ranks x maxWorkers goroutines (the rank-aware cap).
func ensurePool() {
	startPool.Do(func() {
		n := poolWorkers()
		if n < 1 {
			return
		}
		workCh = make(chan *pfTask, 4*n)
		for i := 0; i < n; i++ {
			go func() {
				for t := range workCh {
					t.run()
					t.release()
				}
			}()
		}
	})
}

// ParallelFor executes fn(lo, hi) over disjoint chunks covering [0, n),
// using at most maxWorkers concurrent executors. Chunks are at least grain
// elements long; small problems run inline on the calling goroutine. This
// helper is the reproduction's analogue of a GPU kernel launch: the
// gather/scatter and GEMM kernels schedule "thread blocks" through it.
//
// Scheduling is cooperative: chunks are claimed from a persistent,
// machine-wide worker pool and the caller always works alongside the pool,
// so no goroutines are spawned per call and concurrent callers (the
// simulated rank goroutines) share the machine instead of oversubscribing
// it.
func ParallelFor(n, grain int, fn func(lo, hi int)) {
	parallelFor(0, n, grain, fn)
}

// parallelFor is ParallelFor over [off, off+n): fn sees ranges offset by
// off. One closure can then serve two passes over different index
// ranges, allocated once.
func parallelFor(off, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers := int(maxWorkers.Load())
	if w := (n + grain - 1) / grain; workers > w {
		workers = w
	}
	if workers <= 1 || poolWorkers() < 1 {
		fn(off, off+n)
		return
	}
	chunk := (n + workers - 1) / workers
	chunks := (n + chunk - 1) / chunk
	if chunks <= 1 {
		fn(off, off+n)
		return
	}
	ensurePool()

	t := taskPool.Get().(*pfTask)
	t.fn, t.off, t.n, t.chunk, t.chunks = fn, off, n, chunk, chunks
	t.wg.Add(chunks)
	// The caller is one executor; offer the task to up to chunks-1 pool
	// workers. A full channel means the machine is saturated — skip the
	// handoff and let the caller chew through the chunks itself.
	t.refs.Store(1)
	for i := 0; i < chunks-1; i++ {
		t.refs.Add(1)
		select {
		case workCh <- t:
		default:
			t.refs.Add(-1)
			i = chunks // stop offering
		}
	}
	t.run()
	t.wg.Wait()
	t.release()
}
