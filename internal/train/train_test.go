package train

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

// checkGrad verifies an analytic gradient against central differences of
// the scalar loss function.
func checkGrad(t *testing.T, name string, loss func() float64, data []float32, grad []float32, stride int, tol float64) {
	t.Helper()
	const eps = 1e-2
	for i := 0; i < len(data); i += stride {
		orig := data[i]
		data[i] = orig + eps
		up := loss()
		data[i] = orig - eps
		down := loss()
		data[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-float64(grad[i])) > tol {
			t.Fatalf("%s grad[%d]: analytic %g vs numeric %g", name, i, grad[i], num)
		}
	}
}

func TestLinearBackward(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear(rng, 4, 3, 0.5)
	x := tensor.Randn(rng, 1, 5, 4)
	loss := func() float64 { return l.Forward(x).Sum() }
	loss()
	dy := tensor.New(5, 3)
	dy.Fill(1)
	dx := l.Backward(dy)
	checkGrad(t, "linear.W", loss, l.P.W.Data, l.P.G.Data, 1, 5e-2)
	checkGrad(t, "linear.x", loss, x.Data, dx.Data, 1, 5e-2)
}

func TestEmbeddingBackward(t *testing.T) {
	rng := tensor.NewRNG(2)
	e := NewEmbedding(rng, 6, 3)
	ids := []int{1, 4, 1}
	loss := func() float64 { return e.Forward(ids).Sum() }
	loss()
	dy := tensor.New(3, 3)
	dy.Fill(1)
	e.Backward(dy)
	// Row 1 used twice: grad 2 per element; row 4 once; others zero.
	if e.P.G.At(1, 0) != 2 || e.P.G.At(4, 0) != 1 || e.P.G.At(0, 0) != 0 {
		t.Fatalf("embedding grads wrong: %v", e.P.G.Data)
	}
}

func TestAttentionBackward(t *testing.T) {
	rng := tensor.NewRNG(3)
	a := NewAttention(rng, 6)
	x := tensor.Randn(rng, 0.8, 5, 6)
	loss := func() float64 { return a.Forward(x).Sum() }
	loss()
	dy := tensor.New(5, 6)
	dy.Fill(1)
	dx := a.Backward(dy)
	checkGrad(t, "attn.x", loss, x.Data, dx.Data, 3, 8e-2)
	checkGrad(t, "attn.Wq", loss, a.Wq.P.W.Data, a.Wq.P.G.Data, 7, 8e-2)
	checkGrad(t, "attn.Wv", loss, a.Wv.P.W.Data, a.Wv.P.G.Data, 7, 8e-2)
}

func TestAttentionIsCausal(t *testing.T) {
	rng := tensor.NewRNG(4)
	a := NewAttention(rng, 4)
	x := tensor.Randn(rng, 1, 6, 4)
	out1 := a.Forward(x)
	// Perturb a future token; earlier outputs must not change.
	x2 := x.Clone()
	x2.Row(5)[0] += 10
	out2 := a.Forward(x2)
	for t2 := 0; t2 < 5; t2++ {
		for j := 0; j < 4; j++ {
			if math.Abs(float64(out1.At(t2, j)-out2.At(t2, j))) > 1e-5 {
				t.Fatalf("token %d attended to the future", t2)
			}
		}
	}
}

func moeTestCfg() moe.Config {
	return moe.Config{NumExperts: 4, TopK: 2, HModel: 6, HFFN: 4,
		CapacityFactor: 100, BytesPerElem: 2}
}

// oneRank returns a one-rank cluster, the kind NewLM builds for its MoE
// blocks.
func oneRank() *simrt.Cluster { return simrt.NewCluster(topology.Frontier(), 1, 1) }

// onRank runs fn on the rank of the one-rank cluster c.
func onRank(t testing.TB, c *simrt.Cluster, fn func(r *simrt.Rank)) {
	t.Helper()
	if err := c.Run(func(r *simrt.Rank) error { fn(r); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestMoEFFNBackwardExperts checks every gradient the block returns —
// expert weights, router and input — against central differences of
// <out, dy>. It is the one check that the router's gradient, which reaches
// it only through the transport's DCombineWeights, is right.
func TestMoEFFNBackwardExperts(t *testing.T) {
	rng := tensor.NewRNG(5)
	c := oneRank()
	m := NewMoEFFN(rng, c, moeTestCfg(), moe.DropByCapacityWeight)
	// At their init std of 0.02 the gradients sit far below any
	// finite-difference tolerance; scaled up they are O(0.1-1), so a wrong
	// factor anywhere fails.
	for _, p := range m.Params() {
		p.W.Scale(25)
	}
	x := tensor.Randn(rng, 1, 7, 6)
	dy := tensor.Randn(rng, 1, 7, 6)
	// loss returns <out, dy> and the routing it was computed under.
	loss := func() (l float64, sel []int) {
		onRank(t, c, func(r *simrt.Rank) {
			for i, v := range m.Forward(r, x).Data {
				l += float64(v) * float64(dy.Data[i])
			}
		})
		return l, append(slices.Clone(m.pft.TokenIDs), m.pft.ExpertIDs...)
	}
	_, base := loss()
	var dx *tensor.Tensor
	onRank(t, c, func(r *simrt.Rank) {
		m.Forward(r, x)
		dx = m.Backward(r, dy)
	})

	// A coordinate whose ±eps flips the top-k selection has no derivative
	// there and is skipped; most coordinates must keep their routing.
	check := func(name string, data, grad []float32) {
		t.Helper()
		const eps = 1e-2
		kept := 0
		for i := range data {
			orig := data[i]
			data[i] = orig + eps
			up, upSel := loss()
			data[i] = orig - eps
			down, downSel := loss()
			data[i] = orig
			if !slices.Equal(upSel, base) || !slices.Equal(downSel, base) {
				continue
			}
			kept++
			num := (up - down) / (2 * eps)
			if math.Abs(num-float64(grad[i])) > 1e-2+2e-2*math.Abs(num) {
				t.Fatalf("%s grad[%d]: analytic %g vs numeric %g", name, i, grad[i], num)
			}
		}
		if kept < len(data)*3/4 {
			t.Fatalf("%s: only %d of %d coordinates keep their routing under ±eps", name, kept, len(data))
		}
	}
	for e := range m.W1 {
		check(fmt.Sprintf("moe.W1[%d]", e), m.W1[e].W.Data, m.W1[e].G.Data)
		check(fmt.Sprintf("moe.W2[%d]", e), m.W2[e].W.Data, m.W2[e].G.Data)
	}
	check("moe.router", m.Router.P.W.Data, m.Router.P.G.Data)
	check("moe.x", x.Data, dx.Data)
}

func TestMoEFFNDropPolicies(t *testing.T) {
	// With a tight capacity the two policies must behave differently and
	// the X-MoE policy must retain at least as many tokens.
	rng := tensor.NewRNG(6)
	cfg := moeTestCfg()
	cfg.CapacityFactor = 1.0
	x := tensor.Randn(rng, 1, 32, 6)

	c := oneRank()
	mx := NewMoEFFN(tensor.NewRNG(7), c, cfg, moe.DropByCapacityWeight)
	md := NewMoEFFN(tensor.NewRNG(7), c, cfg, moe.DropNegativeThenPosition)
	onRank(t, c, func(r *simrt.Rank) {
		mx.Forward(r, x)
		md.Forward(r, x)
	})
	if mx.pft.Dropped > md.pft.Dropped {
		t.Fatalf("X-MoE policy dropped more (%d) than DS-MoE policy (%d)",
			mx.pft.Dropped, md.pft.Dropped)
	}
}

func TestAdamReducesSimpleLoss(t *testing.T) {
	// Minimise ||W||² via Adam on synthetic gradients.
	rng := tensor.NewRNG(8)
	p := NewParam(tensor.Randn(rng, 1, 4, 4))
	opt := NewAdam([]*Param{p}, 0.05)
	start := p.W.Clone()
	for i := 0; i < 200; i++ {
		for j, w := range p.W.Data {
			p.G.Data[j] = 2 * w
		}
		opt.Step()
	}
	if p.W.MaxAbs() >= start.MaxAbs() {
		t.Fatal("Adam failed to shrink the quadratic loss")
	}
	if p.W.MaxAbs() > 0.1 {
		t.Fatalf("Adam did not converge: max |w| = %f", p.W.MaxAbs())
	}
}

func TestMarkovCorpusStructure(t *testing.T) {
	c := NewMarkovCorpus(64, 9)
	seq := c.Sequence(5000)
	// The deterministic successor must dominate transitions.
	hits := 0
	for i := 1; i < len(seq); i++ {
		if seq[i] == (3*seq[i-1]+1)%64 {
			hits++
		}
	}
	frac := float64(hits) / float64(len(seq)-1)
	if frac < 0.7 || frac > 0.9 {
		t.Fatalf("dominant transition frequency %.2f outside [0.7, 0.9]", frac)
	}
	for _, tok := range seq {
		if tok < 0 || tok >= 64 {
			t.Fatalf("token %d outside vocab", tok)
		}
	}
}

func TestLMTrainingReducesLoss(t *testing.T) {
	cfg := DefaultLMConfig(moe.DropByCapacityWeight)
	losses := LossCurve(cfg, 120)
	first := Mean(losses[:20])
	last := Mean(losses[len(losses)-20:])
	if last >= first-0.4 {
		t.Fatalf("training did not reduce loss: %.3f -> %.3f", first, last)
	}
	// Initial loss should be near log(V) = 4.16 for an untrained model.
	if losses[0] < 3.0 || losses[0] > 6.0 {
		t.Fatalf("initial loss %.3f implausible for V=64", losses[0])
	}
}

func TestFig15PoliciesTrackClosely(t *testing.T) {
	// Fig. 15's claim: X-MoE's capacity-only dropping closely tracks
	// DeepSpeed-MoE's, retaining more tokens and ending at a loss at
	// least as good (within noise).
	if testing.Short() {
		t.Skip("training comparison skipped in -short")
	}
	const iters = 250
	// The two curves share nothing, so they train side by side.
	var lx, ld []float64
	done := make(chan struct{})
	go func() {
		defer close(done)
		ld = Smooth(LossCurve(DefaultLMConfig(moe.DropNegativeThenPosition), iters), 40)
	}()
	lx = Smooth(LossCurve(DefaultLMConfig(moe.DropByCapacityWeight), iters), 40)
	<-done
	endX := lx[len(lx)-1]
	endD := ld[len(ld)-1]
	if math.Abs(endX-endD) > 0.6 {
		t.Fatalf("curves diverged: X-MoE %.3f vs DS-MoE %.3f", endX, endD)
	}
	if endX > endD+0.15 {
		t.Fatalf("X-MoE loss (%.3f) should not be meaningfully above DS-MoE (%.3f)", endX, endD)
	}
}

func TestSmooth(t *testing.T) {
	xs := []float64{4, 2, 2, 2}
	sm := Smooth(xs, 2)
	if sm[0] != 4 || sm[1] != 3 || sm[3] != 2 {
		t.Fatalf("Smooth = %v", sm)
	}
	if got := Smooth(nil, 0); len(got) != 0 {
		t.Fatal("Smooth(nil) should be empty")
	}
}
