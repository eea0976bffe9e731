package main

import (
	"encoding/binary"
	"hash/fnv"
	"runtime/metrics"
	"sync"
	"time"
)

// countingEngine decorates a cluster's cost engine for the traced pass:
// it forwards every query unchanged (same Cost, bit for bit) and records,
// at that boundary, how many queries an operation makes, how long the
// engine was busy answering them, how many repeat an earlier query of the
// same run (the share a memo can serve), and how many heap objects the
// process allocated meanwhile. It is installed as Cluster.Engine, which
// the cluster consults instead of its analytic Net.
type countingEngine struct {
	inner costEngine
	tr    *tracer
	layer string // "netsim" or "devent": the prefix of the counters

	mu   sync.Mutex
	seen map[uint64]struct{}
	// interNodeBytes sums Cost.InterNodeBytes over the queries so far; read
	// it once the cluster's Run has returned.
	interNodeBytes int64
}

func newCountingEngine(inner costEngine, tr *tracer, layer string) *countingEngine {
	return &countingEngine{inner: inner, tr: tr, layer: layer, seen: map[uint64]struct{}{}}
}

// heapObjects reads the cumulative count of heap allocations without
// stopping the world (runtime.ReadMemStats would).
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// observe times one forwarded query. The other ranks are parked at the
// rendezvous while one of them prices the collective, so the process-wide
// allocation delta is the query's own to within the odd straggler.
func (e *countingEngine) observe(kind string, key uint64, query func() netCost) netCost {
	objs := heapObjects()
	start := time.Now()
	c := query()
	d := time.Since(start)
	objs = heapObjects() - objs

	e.mu.Lock()
	_, repeat := e.seen[key]
	e.seen[key] = struct{}{}
	e.interNodeBytes += interNodeBytes(c)
	e.mu.Unlock()

	e.tr.leaf(e.layer+".query_"+kind, engineTID, start, d)
	e.tr.count(e.layer+".queries", 1)
	e.tr.count(e.layer+".query_busy_ms", ms(d))
	e.tr.count(e.layer+".query_allocs", float64(objs))
	if repeat {
		e.tr.count(e.layer+".repeat_queries", 1)
	}
	return c
}

// queryKey hashes a query's kind and arguments.
func queryKey(kind string, ranks []int, rows ...[]int64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(kind))
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, r := range ranks {
		put(int64(r))
	}
	for _, row := range rows {
		put(-1) // row separator, so [[1],[2]] and [[1,2]] differ
		for _, v := range row {
			put(v)
		}
	}
	return h.Sum64()
}

func (e *countingEngine) AlltoAllV(ranks []int, sendBytes [][]int64) netCost {
	return e.observe("a2av", queryKey("a2av", ranks, sendBytes...), func() netCost {
		return e.inner.AlltoAllV(ranks, sendBytes)
	})
}

func (e *countingEngine) AllReduce(ranks []int, bytes int64) netCost {
	return e.observe("allreduce", queryKey("allreduce", ranks, []int64{bytes}), func() netCost {
		return e.inner.AllReduce(ranks, bytes)
	})
}

func (e *countingEngine) AllGather(ranks []int, perRankBytes []int64) netCost {
	return e.observe("allgather", queryKey("allgather", ranks, perRankBytes), func() netCost {
		return e.inner.AllGather(ranks, perRankBytes)
	})
}

func (e *countingEngine) ReduceScatter(ranks []int, bytes int64) netCost {
	return e.observe("reducescatter", queryKey("reducescatter", ranks, []int64{bytes}), func() netCost {
		return e.inner.ReduceScatter(ranks, bytes)
	})
}

func (e *countingEngine) Broadcast(ranks []int, bytes int64) netCost {
	return e.observe("broadcast", queryKey("broadcast", ranks, []int64{bytes}), func() netCost {
		return e.inner.Broadcast(ranks, bytes)
	})
}

func (e *countingEngine) Barrier(ranks []int) netCost {
	return e.observe("barrier", queryKey("barrier", ranks), func() netCost {
		return e.inner.Barrier(ranks)
	})
}

// EngineName passes the wrapped name through, so the engine mark every
// rank trace carries is the one an undecorated run would carry.
func (e *countingEngine) EngineName() string { return e.inner.EngineName() }

func (e *countingEngine) SetLinkDerate(d map[linkClass]float64) { e.inner.SetLinkDerate(d) }
