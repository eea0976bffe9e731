package kernels

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"xmoe/internal/tensor"
)

func TestGatherReordersRows(t *testing.T) {
	gateOut := tensor.FromSlice([]float32{
		0, 0, // token 0
		1, 1, // token 1
		2, 2, // token 2
	}, 3, 2)
	out := Gather(gateOut, []int{2, 0, 2, 1})
	want := []float32{2, 2, 0, 0, 2, 2, 1, 1}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("Gather = %v, want %v", out.Data, want)
		}
	}
}

func TestGatherBackwardAccumulates(t *testing.T) {
	dDisp := tensor.FromSlice([]float32{
		1, 1,
		2, 2,
		4, 4,
	}, 3, 2)
	// Rows 0 and 2 both came from token 1.
	dGate := GatherBackward(dDisp, []int{1, 0, 1}, 3)
	if dGate.At(0, 0) != 2 || dGate.At(1, 0) != 5 || dGate.At(2, 0) != 0 {
		t.Fatalf("GatherBackward = %v", dGate.Data)
	}
}

func TestScatterCombineWeightedSum(t *testing.T) {
	mlpOut := tensor.FromSlice([]float32{
		10, 10, // entry 0 -> token 1, w=0.5
		20, 20, // entry 1 -> token 0, w=1.0
		30, 30, // entry 2 -> token 1, w=0.1
	}, 3, 2)
	out := ScatterCombine(mlpOut, []int{1, 0, 1}, []float32{0.5, 1.0, 0.1}, 2)
	if out.At(0, 0) != 20 {
		t.Fatalf("token 0 = %f, want 20", out.At(0, 0))
	}
	if math.Abs(float64(out.At(1, 0))-8) > 1e-5 { // 10*0.5 + 30*0.1
		t.Fatalf("token 1 = %f, want 8", out.At(1, 0))
	}
}

func TestScatterCombineArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ScatterCombine(tensor.New(2, 2), []int{0}, []float32{1, 1}, 2)
}

func TestGatherScatterRoundTrip(t *testing.T) {
	// With weights summing to 1 per token and identical expert outputs,
	// scatter(gather(x)) must reproduce x.
	rng := tensor.NewRNG(5)
	x := tensor.Randn(rng, 1, 4, 3)
	ids := []int{0, 0, 1, 2, 3, 3}
	w := []float32{0.3, 0.7, 1, 1, 0.5, 0.5}
	y := ScatterCombine(Gather(x, ids), ids, w, 4)
	if !y.Equal(x, 1e-5) {
		t.Fatal("scatter∘gather with unit weight sums must be identity")
	}
}

func TestSequentialGEMMMatchesPerSegmentMatMul(t *testing.T) {
	rng := tensor.NewRNG(7)
	rows := []int{3, 0, 5, 2}
	k, n := 6, 4
	total := 10
	x := tensor.Randn(rng, 1, total, k)
	ws := make([]*tensor.Tensor, len(rows))
	for i := range ws {
		ws[i] = tensor.Randn(rng, 1, k, n)
	}
	out := SequentialGEMM(x, rows, ws)
	off := 0
	for e, r := range rows {
		for i := 0; i < r; i++ {
			want := tensor.MatMul(tensor.FromSlice(x.Row(off+i), 1, k), ws[e])
			for j := 0; j < n; j++ {
				if math.Abs(float64(out.At(off+i, j)-want.At(0, j))) > 1e-4 {
					t.Fatalf("segment %d row %d differs", e, i)
				}
			}
		}
		off += r
	}
}

// TestSequentialGEMMValidation drives every rejection, one case per
// message, and requires that nothing was written first.
func TestSequentialGEMMValidation(t *testing.T) {
	w := func(shapes ...[2]int) []*tensor.Tensor {
		ws := make([]*tensor.Tensor, len(shapes))
		for i, sh := range shapes {
			ws[i] = tensor.New(sh[0], sh[1])
		}
		return ws
	}
	for _, tc := range []struct {
		name, want string
		fn         func(out *tensor.Tensor)
	}{
		{"segment/weight count", "1 segments but 0 weight matrices", func(out *tensor.Tensor) {
			SequentialGEMMInto(out, tensor.New(2, 2), []int{2}, nil)
		}},
		{"row coverage", "segments cover 2 rows, x has 3", func(out *tensor.Tensor) {
			SequentialGEMMInto(out, tensor.New(3, 2), []int{2}, w([2]int{2, 2}))
		}},
		{"negative segment", "expert 1 has -1 rows", func(out *tensor.Tensor) {
			SequentialGEMMInto(out, tensor.New(3, 2), []int{4, -1}, w([2]int{2, 2}, [2]int{2, 2}))
		}},
		{"weight shape", "expert 1 weight shape [3 2], want [2,2]", func(out *tensor.Tensor) {
			SequentialGEMMInto(out, tensor.New(3, 2), []int{2, 1}, w([2]int{2, 2}, [2]int{3, 2}))
		}},
		{"dst shape", "sequential-gemm dst shape [3 2], want [2,2]", func(out *tensor.Tensor) {
			SequentialGEMMInto(out, tensor.New(2, 2), []int{2}, w([2]int{2, 2}))
		}},
	} {
		out := tensor.New(3, 2)
		out.Fill(7)
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.HasPrefix(msg, "kernels: ") || !strings.Contains(msg, tc.want) {
					t.Errorf("%s: panic %q, want \"kernels: ...%s\"", tc.name, msg, tc.want)
				}
			}()
			tc.fn(out)
		}()
		for i, v := range out.Data {
			if v != 7 {
				t.Errorf("%s: out[%d] written before the rejection", tc.name, i)
				break
			}
		}
	}
}

func TestPaddedDispatchAndCombine(t *testing.T) {
	x := tensor.FromSlice([]float32{
		1, 1,
		2, 2,
		3, 3,
	}, 3, 2)
	// 2 experts, capacity 2: expert 0 gets tokens 0,2; expert 1 gets token 1
	// with one empty (zero-padded) slot.
	slotToken := [][]int{{0, 2}, {1, -1}}
	buf := PaddedDispatch(x, slotToken, 2)
	// Layout [E=2, C=2, H=2]: (e=0,c=1) starts at (0*2+1)*2 = 2 and holds
	// token 2; (e=1,c=0) starts at (1*2+0)*2 = 4 and holds token 1.
	if buf.Data[0] != 1 || buf.Data[2] != 3 || buf.Data[4] != 2 {
		t.Fatalf("padded buffer = %v", buf.Data)
	}
	// The padding slot must stay zero.
	if buf.Data[(1*2+1)*2] != 0 {
		t.Fatal("padding slot not zero")
	}
	slotWeight := [][]float32{{1, 0.5}, {2, 0}}
	out := PaddedCombine(buf, slotToken, slotWeight, 2, 3)
	if out.At(0, 0) != 1 || out.At(1, 0) != 4 || out.At(2, 0) != 1.5 {
		t.Fatalf("padded combine = %v", out.Data)
	}
}

// Property: gather followed by weighted scatter conserves total "mass"
// when each token's weights sum to 1.
func TestQuickGatherScatterConservation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		s := 1 + rng.Intn(10)
		h := 1 + rng.Intn(8)
		k := 1 + rng.Intn(3)
		x := tensor.Randn(rng, 1, s, h)
		var ids []int
		var ws []float32
		for tok := 0; tok < s; tok++ {
			for j := 0; j < k; j++ {
				ids = append(ids, tok)
				ws = append(ws, 1/float32(k))
			}
		}
		y := ScatterCombine(Gather(x, ids), ids, ws, s)
		return y.Equal(x, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: SequentialGEMM with identical weights for all experts equals
// one big MatMul regardless of segmentation.
func TestQuickSequentialGEMMSegmentationInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		total := 1 + rng.Intn(12)
		k, n := 1+rng.Intn(6), 1+rng.Intn(6)
		x := tensor.Randn(rng, 1, total, k)
		w := tensor.Randn(rng, 1, k, n)
		// Random segmentation of total rows.
		var rows []int
		left := total
		for left > 0 {
			r := 1 + rng.Intn(left)
			rows = append(rows, r)
			left -= r
		}
		ws := make([]*tensor.Tensor, len(rows))
		for i := range ws {
			ws[i] = w
		}
		return SequentialGEMM(x, rows, ws).Equal(tensor.MatMul(x, w), 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
