package tensor

import (
	"math/bits"
	"sync"
)

// Pool is a size-bucketed free list of tensor buffers. Hot paths that
// repeatedly allocate same-sized intermediates (the MoE dispatch/combine
// buffers, expert FFN activations, backward scratch) Get tensors from a
// pool and Put them back when done, so steady-state execution stops
// pressuring the garbage collector — the discipline FastMoE and Megatron
// Core MoE use for their reusable dispatch/combine workspaces.
//
// Buffers are bucketed by ceil-power-of-two element count. Get returns a
// tensor whose contents are unspecified (a recycled buffer keeps whatever
// its last user wrote), so a caller must write every element before it
// reads one; the *Into kernels fully overwrite their destinations, which
// is what keeps pooled and allocate-fresh paths bit-identical. A nil *Pool
// is valid and degrades to plain New (allocate-fresh, zero-filled), which
// keeps pooling strictly optional for callers and for the determinism
// regression tests.
//
// Put keeps any buffer whose capacity is a bucket size, fresh ones
// included, so a caller that puts back a tensor no Get handed out grows
// the pool by that buffer: balanced use returns only what Get handed out.
//
// A Pool is safe for concurrent use, but the intended pattern is one pool
// per simulated rank (per-rank arenas) so Get/Put never contend.
type Pool struct {
	mu sync.Mutex
	// free[b] holds buffers with capacity exactly 1<<b elements.
	free [poolBuckets][][]float32
}

// poolBuckets bounds bucket sizes at 1<<(poolBuckets-1) elements (512 MiB
// of float32 at 27); larger requests bypass the pool.
const poolBuckets = 28

// bucketOf returns the bucket index for n elements, or -1 when n is out of
// pooling range.
func bucketOf(n int) int {
	if n <= 0 {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n))
	if b >= poolBuckets {
		return -1
	}
	return b
}

// Get returns a tensor of the given shape with unspecified contents,
// reusing a pooled buffer when one is available; on a nil pool, or for a
// size out of pooling range, it is New(shape...), zero-filled.
func (p *Pool) Get(shape ...int) *Tensor {
	if p == nil {
		return New(shape...)
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			return New(shape...) // New panics with the standard message
		}
		n *= d
	}
	if bucketOf(n) < 0 {
		return New(shape...)
	}
	buf := p.getBuf(n)
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Data: buf, shape: s}
}

// getBuf returns a buffer of n elements with unspecified contents: a
// pooled one when n is in pooling range and its bucket holds one, else a
// fresh one.
func (p *Pool) getBuf(n int) []float32 {
	b := bucketOf(n)
	if b < 0 {
		return make([]float32, n)
	}
	p.mu.Lock()
	var buf []float32
	if l := len(p.free[b]); l > 0 {
		buf = p.free[b][l-1]
		p.free[b][l-1] = nil
		p.free[b] = p.free[b][:l-1]
	}
	p.mu.Unlock()
	if buf == nil {
		buf = make([]float32, 1<<b)
	}
	return buf[:n]
}

// Put returns t's buffer to the pool. The caller must not use t (or any
// view sharing its buffer, e.g. from Reshape or FromSlice) afterwards.
// Tensors whose buffers did not originate from a pool are accepted as long
// as their capacity is an exact bucket size; others are dropped for the
// garbage collector. Put(nil tensor) and Put on a nil pool are no-ops.
func (p *Pool) Put(t *Tensor) {
	if p == nil || t == nil || t.Data == nil {
		return
	}
	if p.putBuf(t.Data) {
		t.Data = nil
	}
}

// putBuf returns buf to the pool and reports whether it was kept: only a
// buffer whose capacity is an exact bucket size is; the GC has the rest.
func (p *Pool) putBuf(buf []float32) bool {
	c := cap(buf)
	b := bucketOf(c)
	if b < 0 || 1<<b != c {
		return false
	}
	p.mu.Lock()
	p.free[b] = append(p.free[b], buf[:c])
	p.mu.Unlock()
	return true
}

// PutAll returns every non-nil tensor to the pool.
func (p *Pool) PutAll(ts ...*Tensor) {
	for _, t := range ts {
		p.Put(t)
	}
}
