package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			c.Data[i*n+j] = float32(s)
		}
	}
	return c
}

func TestNewShapeAndLen(t *testing.T) {
	x := New(3, 4, 5)
	if x.Len() != 60 {
		t.Fatalf("Len = %d, want 60", x.Len())
	}
	if s := x.Shape(); len(s) != 3 || s[0] != 3 || s[1] != 4 || s[2] != 5 {
		t.Fatalf("bad shape %v", x.Shape())
	}
	if x.Rows() != 3 || x.Cols() != 20 {
		t.Fatalf("Rows/Cols = %d/%d, want 3/20", x.Rows(), x.Cols())
	}
}

func TestFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched slice length")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRow(t *testing.T) {
	x := New(2, 3)
	row := x.Row(1)
	row[2] = 7
	if x.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %f, want 7", x.At(1, 2))
	}
	if x.Data[5] != 7 {
		t.Fatalf("Row(1)[2] is not Data[5]: %v", x.Data)
	}
	row[0] = 3
	if x.At(1, 0) != 3 {
		t.Fatal("Row must be a mutable view")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] != 1 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	x.Add(y)
	want := []float32{11, 22, 33, 44}
	for i, w := range want {
		if x.Data[i] != w {
			t.Fatalf("Add: got %v", x.Data)
		}
	}
	x.Scale(2)
	for i, w := range []float32{22, 44, 66, 88} {
		if x.Data[i] != w {
			t.Fatalf("Scale: got %v", x.Data)
		}
	}
}

func TestSumMaxAbs(t *testing.T) {
	x := FromSlice([]float32{-5, 2, 3}, 3)
	if x.Sum() != 0 {
		t.Fatalf("Sum = %f, want 0", x.Sum())
	}
	if x.MaxAbs() != 5 {
		t.Fatalf("MaxAbs = %f, want 5", x.MaxAbs())
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := NewRNG(1)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 32, 8}, {65, 67, 33}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !got.Equal(want, 1e-3) {
			t.Fatalf("MatMul(%dx%dx%d) differs from naive", m, k, n)
		}
	}
}

func TestMatMulTAndTMatMul(t *testing.T) {
	rng := NewRNG(2)
	m, k, n := 9, 7, 11
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, k, n)
	// MatMulT: A [m,k] x (Bt [n,k])ᵀ should equal A x B.
	bt := New(n, k)
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			bt.Data[j*k+i] = b.At(i, j)
		}
	}
	if !MatMulT(a, bt).Equal(naiveMatMul(a, b), 1e-3) {
		t.Fatal("MatMulT differs from A x B")
	}
	// TMatMul: (At [k,m])ᵀ x B should equal A x B.
	at := New(k, m)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			at.Data[j*m+i] = a.At(i, j)
		}
	}
	if !TMatMul(at, b).Equal(naiveMatMul(a, b), 1e-3) {
		t.Fatal("TMatMul differs from A x B")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestSoftmaxRows(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	SoftmaxRows(x)
	for i := 0; i < 2; i++ {
		var s float64
		for j := 0; j < 3; j++ {
			v := x.At(i, j)
			if v < 0 || v > 1 || math.IsNaN(float64(v)) {
				t.Fatalf("softmax out of range or NaN: %f", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %f", i, s)
		}
	}
	if !(x.At(0, 2) > x.At(0, 1) && x.At(0, 1) > x.At(0, 0)) {
		t.Fatal("softmax must preserve ordering")
	}
}

func TestLogSoftmaxRows(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 1, 3)
	LogSoftmaxRows(x)
	var s float64
	for j := 0; j < 3; j++ {
		s += math.Exp(float64(x.At(0, j)))
	}
	if math.Abs(s-1) > 1e-5 {
		t.Fatalf("exp(logsoftmax) sums to %f", s)
	}
}

func TestTopK(t *testing.T) {
	x := FromSlice([]float32{0.1, 0.9, 0.5, 0.3}, 1, 4)
	idx, vals := TopK(x, 2)
	if idx[0] != 1 || idx[1] != 2 {
		t.Fatalf("TopK indices = %v, want [1 2]", idx)
	}
	if vals[0] != 0.9 || vals[1] != 0.5 {
		t.Fatalf("TopK values = %v", vals)
	}
}

func TestTopKTieBreaksByIndex(t *testing.T) {
	x := FromSlice([]float32{0.5, 0.5, 0.5}, 1, 3)
	idx, _ := TopK(x, 2)
	if idx[0] != 0 || idx[1] != 1 {
		t.Fatalf("tie-break order = %v, want [0 1]", idx)
	}
}

func TestTopKClampsK(t *testing.T) {
	x := FromSlice([]float32{3, 1}, 1, 2)
	idx, _ := TopK(x, 5)
	if len(idx) != 2 {
		t.Fatalf("k should clamp to cols, got %d", len(idx))
	}
}

func TestActivationsForward(t *testing.T) {
	g := FromSlice([]float32{-2, 0, 2}, 3)
	GeLU(g)
	if g.Data[1] != 0 || g.Data[2] < 1.9 || g.Data[0] > 0 {
		t.Fatalf("GeLU = %v", g.Data)
	}
}

// numericalGrad estimates d f / d x[i] by central differences.
func numericalGrad(f func(*Tensor) float64, x *Tensor, i int) float64 {
	const eps = 1e-3
	orig := x.Data[i]
	x.Data[i] = orig + eps
	up := f(x)
	x.Data[i] = orig - eps
	down := f(x)
	x.Data[i] = orig
	return (up - down) / (2 * eps)
}

func checkActivationGrad(t *testing.T, name string, fwd func(*Tensor), bwd func(dy, x *Tensor) *Tensor) {
	t.Helper()
	rng := NewRNG(7)
	x := Randn(rng, 1, 5)
	loss := func(in *Tensor) float64 {
		y := in.Clone()
		fwd(y)
		return y.Sum()
	}
	dy := New(5)
	dy.Fill(1)
	dx := bwd(dy, x)
	for i := 0; i < x.Len(); i++ {
		num := numericalGrad(loss, x, i)
		if math.Abs(num-float64(dx.Data[i])) > 5e-2 {
			t.Fatalf("%s grad[%d]: analytic %f vs numeric %f", name, i, dx.Data[i], num)
		}
	}
}

func TestActivationGradients(t *testing.T) {
	checkActivationGrad(t, "GeLU", GeLU, geluBackward)
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic for equal seeds")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds should diverge immediately (with overwhelming probability)")
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	p := NewRNG(3).Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandnMoments(t *testing.T) {
	rng := NewRNG(9)
	x := Randn(rng, 2, 10000)
	mean := x.Sum() / float64(x.Len())
	if math.Abs(mean) > 0.1 {
		t.Fatalf("Randn mean = %f, want ~0", mean)
	}
	var varsum float64
	for _, v := range x.Data {
		varsum += float64(v) * float64(v)
	}
	std := math.Sqrt(varsum / float64(x.Len()))
	if math.Abs(std-2) > 0.1 {
		t.Fatalf("Randn std = %f, want ~2", std)
	}
}

func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1001} {
		covered := make([]int32, n+1)
		var mu = make(chan struct{}, 1)
		mu <- struct{}{}
		ParallelFor(n, 3, func(lo, hi int) {
			<-mu
			for i := lo; i < hi; i++ {
				covered[i]++
			}
			mu <- struct{}{}
		})
		for i := 0; i < n; i++ {
			if covered[i] != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, covered[i])
			}
		}
	}
}

func TestSetMaxWorkers(t *testing.T) {
	old := SetMaxWorkers(1)
	defer SetMaxWorkers(old)
	ran := 0
	ParallelFor(10, 1, func(lo, hi int) { ran += hi - lo })
	if ran != 10 {
		t.Fatalf("single-worker ParallelFor covered %d of 10", ran)
	}
	if got := SetMaxWorkers(-5); got != 1 {
		t.Fatalf("SetMaxWorkers returned %d, want previous value 1", got)
	}
}

// Property: softmax rows always sum to 1 and MatMul distributes over
// addition: A(B+C) == AB + AC (within float tolerance).
func TestQuickMatMulDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		c := Randn(rng, 1, k, n)
		bc := b.Clone()
		bc.Add(c)
		left := MatMul(a, bc)
		right := MatMul(a, b)
		right.Add(MatMul(a, c))
		return left.Equal(right, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(10)
		x := Randn(rng, 5, rows, cols)
		SoftmaxRows(x)
		for i := 0; i < rows; i++ {
			var s float64
			for j := 0; j < cols; j++ {
				s += float64(x.At(i, j))
			}
			if math.Abs(s-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTopKSelectsMaxima(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		cols := 2 + rng.Intn(12)
		k := 1 + rng.Intn(cols)
		x := Randn(rng, 1, 1, cols)
		idx, vals := TopK(x, k)
		// Values must be in descending order, and the smallest selected value
		// must be >= every unselected value.
		sel := make(map[int]bool)
		for j := 0; j < k; j++ {
			sel[idx[j]] = true
			if j > 0 && vals[j] > vals[j-1] {
				return false
			}
		}
		minSel := vals[k-1]
		for j := 0; j < cols; j++ {
			if !sel[j] && x.At(0, j) > minSel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
