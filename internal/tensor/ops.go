package tensor

import "math"

// SoftmaxRows applies a numerically stable softmax to each row of a
// matrix-shaped tensor in place.
func SoftmaxRows(t *Tensor) {
	rows, cols := t.Rows(), t.Cols()
	ParallelFor(rows, 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := t.Data[i*cols : (i+1)*cols]
			maxv := row[0]
			for _, v := range row[1:] {
				if v > maxv {
					maxv = v
				}
			}
			var sum float64
			for j, v := range row {
				e := float32(math.Exp(float64(v - maxv)))
				row[j] = e
				sum += float64(e)
			}
			inv := float32(1.0 / sum)
			for j := range row {
				row[j] *= inv
			}
		}
	})
}

// LogSoftmaxRows applies log-softmax to each row in place and returns t.
func LogSoftmaxRows(t *Tensor) *Tensor {
	rows, cols := t.Rows(), t.Cols()
	ParallelFor(rows, 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := t.Data[i*cols : (i+1)*cols]
			maxv := row[0]
			for _, v := range row[1:] {
				if v > maxv {
					maxv = v
				}
			}
			var sum float64
			for _, v := range row {
				sum += math.Exp(float64(v - maxv))
			}
			lse := maxv + float32(math.Log(sum))
			for j := range row {
				row[j] -= lse
			}
		}
	})
	return t
}

// TopK returns, for each row of a matrix-shaped tensor, the indices and
// values of its k largest entries in descending value order. Ties are
// broken by lower index first, matching the deterministic behaviour the
// routing tests rely on.
//
// Both results are flat and row-major: row i's selection is
// [i*k, (i+1)*k), with k clamped to the column count. Selection is by
// repeated scan, no per-row sort or allocation.
func TopK(t *Tensor, k int) (indices []int, values []float32) {
	rows, cols := t.Rows(), t.Cols()
	k = min(k, cols)
	indices = make([]int, rows*k)
	values = make([]float32, rows*k)
	ParallelFor(rows, 16, func(lo, hi int) {
		taken := make([]bool, cols)
		for i := lo; i < hi; i++ {
			row := t.Data[i*cols : (i+1)*cols]
			ind := indices[i*k : (i+1)*k]
			val := values[i*k : (i+1)*k]
			for j := 0; j < k; j++ {
				best := -1
				for c := 0; c < cols; c++ {
					// Strict > keeps the lowest index on ties.
					if !taken[c] && (best < 0 || row[c] > row[best]) {
						best = c
					}
				}
				taken[best] = true
				ind[j] = best
				val[j] = row[best]
			}
			for _, c := range ind {
				taken[c] = false
			}
		}
	})
	return indices, values
}
