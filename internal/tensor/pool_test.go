package tensor

import (
	"sync"
	"testing"
)

// TestPoolGetContract pins what Get promises: a recycled buffer comes
// back as it was put (same backing array, contents unspecified) in the
// requested shape, and a nil pool's Get is New, zero-filled.
func TestPoolGetContract(t *testing.T) {
	var p Pool
	a := p.Get(4, 8)
	a.Fill(1)
	data := &a.Data[0]
	p.Put(a)
	b := p.Get(8, 3)
	if &b.Data[0] != data {
		t.Fatal("pool did not reuse the put buffer")
	}
	if b.Rows() != 8 || b.Cols() != 3 || b.Len() != 24 {
		t.Fatalf("recycled tensor shape %v, len %d", b.Shape(), b.Len())
	}
	var nilPool *Pool
	c := nilPool.Get(4, 8)
	c.Fill(1)
	nilPool.Put(c)
	for i, v := range nilPool.Get(4, 8).Data {
		if v != 0 {
			t.Fatalf("nil pool Get not zero-filled at %d: %f", i, v)
		}
	}
}

func TestPoolReusesBuffers(t *testing.T) {
	var p Pool
	a := p.Get(100)
	data := &a.Data[0]
	p.Put(a)
	// Same bucket (128) even though the shape differs.
	b := p.Get(10, 11)
	if &b.Data[0] != data {
		t.Fatal("pool did not reuse the bucketed buffer")
	}
}

func TestPoolNilIsAllocateFresh(t *testing.T) {
	var p *Pool
	a := p.Get(3, 3)
	if a.Len() != 9 {
		t.Fatalf("nil pool Get returned %v", a.Shape())
	}
	p.Put(a) // must not panic
}

func TestPoolPutForeignBufferDropped(t *testing.T) {
	var p Pool
	// New allocates exact-size buffers, which are not bucket-sized unless
	// the length is a power of two; 9 elements must be dropped.
	a := New(3, 3)
	p.Put(a)
	b := p.Get(3, 3)
	if b.Len() != 9 {
		t.Fatalf("got %v", b.Shape())
	}
}

func TestPoolMatchesNewBitForBit(t *testing.T) {
	var p Pool
	rng := NewRNG(3)
	x := Randn(rng, 1, 16, 16)
	w := Randn(rng, 1, 16, 16)

	fresh := MatMul(x, w)

	scratch := p.Get(16, 16)
	for i := range scratch.Data {
		scratch.Data[i] = 42 // dirty it
	}
	p.Put(scratch)
	pooled := p.Get(16, 16)
	MatMulInto(pooled, x, w)
	for i := range fresh.Data {
		if fresh.Data[i] != pooled.Data[i] {
			t.Fatalf("pooled MatMulInto differs at %d: %f vs %f", i, fresh.Data[i], pooled.Data[i])
		}
	}
}

func TestPoolConcurrentGetPut(t *testing.T) {
	var p Pool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				t1 := p.Get(32, seed+1)
				t2 := p.Get(seed+1, 32)
				p.Put(t1)
				p.Put(t2)
			}
		}(g)
	}
	wg.Wait()
}

// TestMatMulIntoVariantsMatchFresh pins the bit-identity of the *Into
// matmul/activation kernels against their allocate-fresh twins, on
// deliberately dirtied destination buffers.
func TestMatMulIntoVariantsMatchFresh(t *testing.T) {
	rng := NewRNG(7)
	a := Randn(rng, 1, 13, 9)
	b := Randn(rng, 1, 17, 9) // for MatMulT: [n,k]
	c := Randn(rng, 1, 13, 9) // for TMatMul: aᵀ[9,13]·c? use shapes below

	t.Run("MatMulTInto", func(t *testing.T) {
		want := MatMulT(a, b)
		got := New(13, 17)
		got.Fill(99)
		MatMulTInto(got, a, b)
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("mismatch at %d", i)
			}
		}
	})
	t.Run("TMatMulInto", func(t *testing.T) {
		want := TMatMul(a, c) // [9,13]ᵀ... a is [13,9]: Aᵀ·C = [9,9]
		got := New(9, 9)
		got.Fill(-3)
		TMatMulInto(got, a, c)
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("mismatch at %d", i)
			}
		}
	})
	t.Run("ActivationBackwardInto", func(t *testing.T) {
		x := Randn(rng, 1, 5, 7)
		dy := Randn(rng, 1, 5, 7)
		want := New(5, 7)
		geluBackwardRef(want, dy, x)
		act, dx := New(5, 7), New(5, 7)
		act.Fill(123)
		dx.Fill(123)
		saved := x.Clone()
		GeLUWithGrad(act, saved)
		MulInto(dx, saved, dy)
		if err := sameBits(dx, want); err != nil {
			t.Fatalf("gelu: %v", err)
		}
	})
}

// TestSetMaxWorkersConcurrent exercises the atomic worker bound under
// concurrent kernel launches (run with -race).
func TestSetMaxWorkersConcurrent(t *testing.T) {
	defer SetMaxWorkers(int(maxWorkers.Load()))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				SetMaxWorkers(1 + i%8)
			}
		}
	}()
	buf := make([]float32, 1<<12)
	for i := 0; i < 100; i++ {
		ParallelFor(len(buf), 64, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				buf[j] += 1
			}
		})
	}
	close(stop)
	wg.Wait()
	for j, v := range buf {
		if v != 100 {
			t.Fatalf("element %d ran %v times, want 100", j, v)
		}
	}
}
