// Package train is the numeric training stack used for the paper's
// implementation validation (§5.6, Fig. 15): a complete, hand-written
// forward/backward MoE transformer language model — embedding, causal
// attention, MoE FFN with top-k routing and configurable token-dropping
// policy, cross-entropy loss, and Adam — trained on a synthetic corpus.
// It validates that X-MoE's capacity-only dropping tracks (and slightly
// beats) DeepSpeed-MoE's drop-negative-score policy in loss.
package train

import (
	"math"

	"xmoe/internal/kernels"
	"xmoe/internal/moe"
	"xmoe/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	W *tensor.Tensor
	G *tensor.Tensor
}

// NewParam wraps an initialised weight tensor.
func NewParam(w *tensor.Tensor) *Param {
	return &Param{W: w, G: tensor.New(w.Shape()...)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Linear is a bias-free dense layer y = x·W.
type Linear struct {
	P  *Param
	x  *tensor.Tensor // cached input
	dw *tensor.Tensor // persistent dW scratch (same shape as W)
}

// NewLinear initialises a [in, out] projection with the given std.
func NewLinear(rng *tensor.RNG, in, out int, std float32) *Linear {
	return &Linear{P: NewParam(tensor.Randn(rng, std, in, out))}
}

// Forward computes y = x·W and caches x for backward.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.x = x
	return tensor.MatMul(x, l.P.W)
}

// Backward accumulates dW and returns dX. The weight-gradient GEMM runs
// into a persistent scratch tensor then accumulates, preserving the
// summation order of the allocate-fresh path bit for bit.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	l.dw = ensureShape(l.dw, l.P.W.Rows(), l.P.W.Cols())
	tensor.TMatMulInto(l.dw, l.x, dy)
	l.P.G.Add(l.dw)
	return tensor.MatMulT(dy, l.P.W)
}

// ensureShape returns t when it already has shape [rows, cols], otherwise
// a fresh zero tensor of that shape. Steady-state training reuses the
// same buffer every step; shape changes (first step, new batch geometry)
// fall back to allocation.
func ensureShape(t *tensor.Tensor, rows, cols int) *tensor.Tensor {
	if t != nil && t.Rows() == rows && t.Cols() == cols {
		return t
	}
	return tensor.New(rows, cols)
}

// Embedding maps token ids to dense rows.
type Embedding struct {
	P   *Param
	ids []int
}

// NewEmbedding initialises a [vocab, h] table.
func NewEmbedding(rng *tensor.RNG, vocab, h int) *Embedding {
	return &Embedding{P: NewParam(tensor.Randn(rng, 0.02, vocab, h))}
}

// Forward gathers embedding rows for ids.
func (e *Embedding) Forward(ids []int) *tensor.Tensor {
	e.ids = ids
	return kernels.Gather(e.P.W, ids)
}

// Backward scatters output gradients into the table gradient.
func (e *Embedding) Backward(dy *tensor.Tensor) {
	h := dy.Cols()
	for i, id := range e.ids {
		g := e.P.G.Row(id)
		src := dy.Row(i)
		for j := 0; j < h; j++ {
			g[j] += src[j]
		}
	}
}

// Attention is a single-head causal self-attention block operating on one
// sequence of S tokens, with full hand-written backward.
type Attention struct {
	Wq, Wk, Wv, Wo *Linear
	scale          float32
	// caches
	x, q, k, v, probs, z *tensor.Tensor
	// persistent backward scratch (shapes are fixed for a fixed S)
	dscores *tensor.Tensor
}

// NewAttention builds the block for hidden size h.
func NewAttention(rng *tensor.RNG, h int) *Attention {
	std := float32(0.02)
	return &Attention{
		Wq:    NewLinear(rng, h, h, std),
		Wk:    NewLinear(rng, h, h, std),
		Wv:    NewLinear(rng, h, h, std),
		Wo:    NewLinear(rng, h, h, std),
		scale: float32(1 / math.Sqrt(float64(h))),
	}
}

// Forward computes causal attention over x [S, H].
func (a *Attention) Forward(x *tensor.Tensor) *tensor.Tensor {
	a.x = x
	a.q = a.Wq.Forward(x)
	a.k = a.Wk.Forward(x)
	a.v = a.Wv.Forward(x)
	s := x.Rows()
	scores := tensor.MatMulT(a.q, a.k) // [S, S]
	scores.Scale(a.scale)
	// Causal mask: position i attends to j <= i.
	for i := 0; i < s; i++ {
		row := scores.Row(i)
		for j := i + 1; j < s; j++ {
			row[j] = float32(math.Inf(-1))
		}
	}
	tensor.SoftmaxRows(scores)
	a.probs = scores
	a.z = tensor.MatMul(a.probs, a.v)
	return a.Wo.Forward(a.z)
}

// Backward propagates dy through the block, returning dX.
func (a *Attention) Backward(dy *tensor.Tensor) *tensor.Tensor {
	s := a.x.Rows()
	dz := a.Wo.Backward(dy)
	dprobs := tensor.MatMulT(dz, a.v) // [S, S]
	dv := tensor.TMatMul(a.probs, dz) // [S, H]
	// Softmax backward per row: dscore = p * (dprob - <dprob, p>).
	dscores := ensureShape(a.dscores, s, s)
	dscores.Zero()
	a.dscores = dscores
	for i := 0; i < s; i++ {
		p := a.probs.Row(i)
		dp := dprobs.Row(i)
		var dot float32
		for j := 0; j <= i; j++ {
			dot += dp[j] * p[j]
		}
		dst := dscores.Row(i)
		for j := 0; j <= i; j++ {
			dst[j] = p[j] * (dp[j] - dot)
		}
	}
	dscores.Scale(a.scale)
	dq := tensor.MatMul(dscores, a.k)  // [S, H]
	dk := tensor.TMatMul(dscores, a.q) // [S, H]
	dx := a.Wq.Backward(dq)
	dx.Add(a.Wk.Backward(dk))
	dx.Add(a.Wv.Backward(dv))
	return dx
}

// Params returns the block's trainable parameters.
func (a *Attention) Params() []*Param {
	return []*Param{a.Wq.P, a.Wk.P, a.Wv.P, a.Wo.P}
}

// MoEFFN is a complete MoE feed-forward block: router, PFT construction
// with a configurable drop policy, gather dispatch, per-expert two-layer
// GeLU FFNs via sequential GEMM, and the weighted scatter combine — the
// numeric twin of the distributed padding-free pipeline.
type MoEFFN struct {
	Cfg    moe.Config
	Policy moe.DropPolicy
	Router *Linear
	W1, W2 []*Param // per expert

	// caches for backward
	x         *tensor.Tensor
	logits    *tensor.Tensor
	probs     *tensor.Tensor
	pft       *moe.PFT
	dispIn    *tensor.Tensor
	hidPre    *tensor.Tensor // pre-activation
	hidAct    *tensor.Tensor
	expertOut *tensor.Tensor
	rows      []int
	perm      []int // PFT order -> expert-major order

	// pool is the block's private arena: the routed-token intermediates
	// (whose row count b varies step to step with the routing) cycle
	// through it, so steady-state training stops allocating. Weight
	// views and per-expert gradient scratch persist across steps.
	pool       tensor.Pool
	w1v, w2v   []*tensor.Tensor // weight views passed to the kernels
	dw1s, dw2s []*tensor.Tensor // per-expert dW scratch
	dWeights   []float32
	dProbs     *tensor.Tensor
	dLogits    *tensor.Tensor
}

// NewMoEFFN builds the block.
func NewMoEFFN(rng *tensor.RNG, cfg moe.Config, policy moe.DropPolicy) *MoEFFN {
	m := &MoEFFN{
		Cfg:    cfg,
		Policy: policy,
		Router: NewLinear(rng, cfg.HModel, cfg.NumExperts, 0.02),
		W1:     make([]*Param, cfg.NumExperts),
		W2:     make([]*Param, cfg.NumExperts),
	}
	for e := 0; e < cfg.NumExperts; e++ {
		m.W1[e] = NewParam(tensor.Randn(rng, 0.02, cfg.HModel, cfg.HFFN))
		m.W2[e] = NewParam(tensor.Randn(rng, 0.02, cfg.HFFN, cfg.HModel))
	}
	return m
}

// weightViews refreshes the cached []*tensor.Tensor views of the expert
// weights that the sequential-GEMM kernels consume.
func (m *MoEFFN) weightViews() (w1, w2 []*tensor.Tensor) {
	if m.w1v == nil {
		m.w1v = make([]*tensor.Tensor, m.Cfg.NumExperts)
		m.w2v = make([]*tensor.Tensor, m.Cfg.NumExperts)
	}
	for e := range m.w1v {
		m.w1v[e] = m.W1[e].W
		m.w2v[e] = m.W2[e].W
	}
	return m.w1v, m.w2v
}

// Forward routes x [S, H] through the MoE block.
func (m *MoEFFN) Forward(x *tensor.Tensor) *tensor.Tensor {
	s := x.Rows()
	m.x = x
	// Recycle the previous step's routed-token buffers (a no-op on the
	// first step or when Backward already returned them).
	m.pool.PutAll(m.probs, m.dispIn, m.hidPre, m.hidAct, m.expertOut)
	m.probs, m.dispIn, m.hidPre, m.hidAct, m.expertOut = nil, nil, nil, nil, nil
	m.logits = m.Router.Forward(x)
	m.probs = m.pool.Get(m.logits.Shape()...)
	m.probs.Copy(m.logits)
	tensor.SoftmaxRows(m.probs)
	routing := moe.TopKRouting(m.logits, m.probs, m.Cfg.TopK)
	m.pft = moe.BuildPFT(routing, m.Cfg.NumExperts, m.Cfg.Capacity(s), m.Policy)

	// Dispatch (gather) — entries are already expert-major, so the
	// sequential GEMM consumes them directly.
	b := m.pft.B()
	m.dispIn = m.pool.Get(b, m.Cfg.HModel)
	kernels.GatherInto(m.dispIn, x, m.pft.TokenIDs)
	m.rows = append(m.rows[:0], m.pft.TokensPerExpert...)

	w1, w2 := m.weightViews()
	m.hidPre = m.pool.Get(b, m.Cfg.HFFN)
	kernels.SequentialGEMMInto(m.hidPre, m.dispIn, m.rows, w1)
	m.hidAct = m.pool.Get(b, m.Cfg.HFFN)
	m.hidAct.Copy(m.hidPre)
	tensor.GeLU(m.hidAct)
	m.expertOut = m.pool.Get(b, m.Cfg.HModel)
	kernels.SequentialGEMMInto(m.expertOut, m.hidAct, m.rows, w2)

	return kernels.ScatterCombine(m.expertOut, m.pft.TokenIDs, m.pft.CombineWeights, s)
}

// Backward propagates dy [S, H] through the block, accumulating router
// and expert gradients, and returns dX. Gradients flow both through the
// expert outputs and through the combine weights into the router softmax.
func (m *MoEFFN) Backward(dy *tensor.Tensor) *tensor.Tensor {
	s := m.x.Rows()
	b := m.pft.B()

	// Combine backward: per-row expert-output grads and combine-weight
	// grads.
	dExpertOut := m.pool.Get(b, m.Cfg.HModel)
	if cap(m.dWeights) < b {
		m.dWeights = make([]float32, b)
	}
	dWeights := m.dWeights[:b]
	kernels.ScatterCombineBackwardInto(dExpertOut, dWeights, dy, m.expertOut, m.pft.TokenIDs, m.pft.CombineWeights)

	// Expert FFN backward. The per-expert dW scratch tensors persist
	// across steps (expert weight shapes are fixed); the GEMMs overwrite
	// them and the results accumulate into the gradient params, matching
	// the allocate-fresh summation order exactly.
	w1, w2 := m.weightViews()
	if m.dw1s == nil {
		m.dw1s = make([]*tensor.Tensor, m.Cfg.NumExperts)
		m.dw2s = make([]*tensor.Tensor, m.Cfg.NumExperts)
		for e := 0; e < m.Cfg.NumExperts; e++ {
			m.dw1s[e] = tensor.New(m.Cfg.HModel, m.Cfg.HFFN)
			m.dw2s[e] = tensor.New(m.Cfg.HFFN, m.Cfg.HModel)
		}
	}
	dHidAct := m.pool.Get(b, m.Cfg.HFFN)
	kernels.SequentialGEMMBackwardInto(dHidAct, m.dw2s, dExpertOut, m.hidAct, m.rows, w2)
	m.pool.Put(dExpertOut)
	dHidPre := m.pool.Get(b, m.Cfg.HFFN)
	tensor.GeLUBackwardInto(dHidPre, dHidAct, m.hidPre)
	m.pool.Put(dHidAct)
	dDispIn := m.pool.Get(b, m.Cfg.HModel)
	kernels.SequentialGEMMBackwardInto(dDispIn, m.dw1s, dHidPre, m.dispIn, m.rows, w1)
	m.pool.Put(dHidPre)
	for e := range m.dw1s {
		m.W1[e].G.Add(m.dw1s[e])
		m.W2[e].G.Add(m.dw2s[e])
	}

	// Dispatch (gather) backward into the block input.
	dx := kernels.GatherBackward(dDispIn, m.pft.TokenIDs, s)
	m.pool.Put(dDispIn)

	// Router backward through the combine weights: weight i is
	// probs[token, expert] for each retained entry; softmax backward
	// turns per-probability grads into logit grads.
	m.dProbs = ensureShape(m.dProbs, s, m.Cfg.NumExperts)
	m.dProbs.Zero()
	dProbs := m.dProbs
	for i := range m.pft.TokenIDs {
		dProbs.Set(m.pft.TokenIDs[i], m.pft.ExpertIDs[i],
			dProbs.At(m.pft.TokenIDs[i], m.pft.ExpertIDs[i])+dWeights[i])
	}
	m.dLogits = ensureShape(m.dLogits, s, m.Cfg.NumExperts)
	dLogits := m.dLogits
	for t := 0; t < s; t++ {
		p := m.probs.Row(t)
		dp := dProbs.Row(t)
		var dot float32
		for j, v := range dp {
			dot += v * p[j]
		}
		dst := dLogits.Row(t)
		for j := range dst {
			dst[j] = p[j] * (dp[j] - dot)
		}
	}
	dx.Add(m.Router.Backward(dLogits))

	// The forward caches are consumed; return them to the arena so the
	// next Forward reuses the buffers.
	m.pool.PutAll(m.probs, m.dispIn, m.hidPre, m.hidAct, m.expertOut)
	m.probs, m.dispIn, m.hidPre, m.hidAct, m.expertOut = nil, nil, nil, nil, nil
	return dx
}

// Params returns all trainable parameters of the block.
func (m *MoEFFN) Params() []*Param {
	out := []*Param{m.Router.P}
	for e := range m.W1 {
		out = append(out, m.W1[e], m.W2[e])
	}
	return out
}

// DroppedTokens returns the drop count of the most recent forward pass.
func (m *MoEFFN) DroppedTokens() int {
	if m.pft == nil {
		return 0
	}
	return m.pft.Dropped
}
