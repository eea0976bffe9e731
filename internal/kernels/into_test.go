package kernels

import (
	"testing"

	"xmoe/internal/tensor"
)

// dirtyPooled returns a pool whose free lists hold deliberately dirtied
// buffers, so Get exercises the recycled-buffer path.
func dirtyPooled(shapes ...[]int) *tensor.Pool {
	p := &tensor.Pool{}
	for _, s := range shapes {
		t := p.Get(s...)
		t.Fill(1234.5)
		p.Put(t)
	}
	return p
}

// TestIntoKernelsMatchFreshBitForBit is the determinism regression test
// for the pooled/in-place kernel paths: every *Into kernel must produce
// exactly the bytes its allocate-fresh twin produces, including on
// recycled pool buffers.
func TestIntoKernelsMatchFreshBitForBit(t *testing.T) {
	const s, h, e, k = 64, 24, 4, 2
	x, ids, weights, rows, w1 := benchSetup(s, h, e, k)
	b := len(ids)

	equal := func(t *testing.T, name string, want, got *tensor.Tensor) {
		t.Helper()
		if want.Len() != got.Len() {
			t.Fatalf("%s: length %d vs %d", name, want.Len(), got.Len())
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("%s: bit mismatch at %d: %v vs %v", name, i, want.Data[i], got.Data[i])
			}
		}
	}

	pool := dirtyPooled([]int{b, h}, []int{s, h})

	t.Run("Gather", func(t *testing.T) {
		want := Gather(x, ids)
		got := pool.Get(b, h)
		GatherInto(got, x, ids)
		equal(t, "gather", want, got)
		pool.Put(got)
	})

	t.Run("GatherBackward", func(t *testing.T) {
		dy := Gather(x, ids)
		want := GatherBackward(dy, ids, s)
		got := pool.Get(s, h)
		GatherBackwardInto(got, dy, ids)
		equal(t, "gather-backward", want, got)
		pool.Put(got)
	})

	t.Run("ScatterCombine", func(t *testing.T) {
		mlpOut := Gather(x, ids)
		want := ScatterCombine(mlpOut, ids, weights, s)
		got := pool.Get(s, h)
		ScatterCombineInto(got, mlpOut, ids, weights)
		equal(t, "scatter", want, got)
		pool.Put(got)
	})

	t.Run("SequentialGEMM", func(t *testing.T) {
		seg := Gather(x, ids)
		want := SequentialGEMM(seg, rows, w1)
		got := pool.Get(b, h)
		SequentialGEMMInto(got, seg, rows, w1)
		equal(t, "seqgemm", want, got)
		pool.Put(got)
	})

	t.Run("ZeroRowSegments", func(t *testing.T) {
		// An expert with zero tokens owns no output rows: the segments
		// around it must still tile a dirty recycled destination.
		rows0 := append([]int(nil), rows...)
		// Move expert 1's rows to expert 0 to create an empty segment.
		rows0[0] += rows0[1]
		rows0[1] = 0
		seg := Gather(x, ids)
		want := SequentialGEMM(seg, rows0, w1)
		got := pool.Get(b, h)
		got.Fill(7)
		SequentialGEMMInto(got, seg, rows0, w1)
		equal(t, "zero-segment", want, got)
		pool.Put(got)
	})

	t.Run("Padded", func(t *testing.T) {
		// The capacity-padded layout of four experts with three slots each:
		// holes (-1) gather as zero rows, also into a dirty destination,
		// and add nothing in either scatter.
		slots := []int{0, 2, -1, 1, -1, -1, 3, 4, 5, -1, -1, -1}
		slotWeight := []float32{0.5, 0.25, 0, 1, 0, 0, 0.1, 0.2, 0.3, 0, 0, 0}
		wantD := Gather(x, slots)
		gotD := pool.Get(len(slots), h)
		gotD.Fill(7)
		GatherInto(gotD, x, slots)
		equal(t, "padded-dispatch", wantD, gotD)

		wantC := ScatterCombine(wantD, slots, slotWeight, s)
		gotC := pool.Get(s, h)
		ScatterCombineInto(gotC, gotD, slots, slotWeight)
		equal(t, "padded-combine", wantC, gotC)

		wantB := GatherBackward(wantD, slots, s)
		gotB := pool.Get(s, h)
		GatherBackwardInto(gotB, gotD, slots)
		equal(t, "padded-gather-backward", wantB, gotB)
	})
}
