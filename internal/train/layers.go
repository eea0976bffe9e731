// Package train is the numeric training stack. Its MoE transformer
// language model serves the paper's implementation validation (§5.6,
// Fig. 15): embedding, causal attention with a hand-written backward, an
// MoE FFN whose top-k router and configurable token-dropping policy feed
// the shipped PFT transport on a one-rank cluster, cross-entropy loss and
// Adam, trained on a synthetic corpus. It validates that X-MoE's
// capacity-only dropping tracks (and slightly beats) DeepSpeed-MoE's
// drop-negative-score policy in loss. DistTrainer (dist.go) is the
// simulated expert-parallel trainer over any transport.
package train

import (
	"math"

	"xmoe/internal/kernels"
	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/transport"
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

// MoEFFN is the LM's MoE feed-forward block. It keeps the router and the
// gate — softmax, top-k and the router's softmax backward — and runs the
// rest, PFT construction through the weighted combine in both directions,
// through the PFT transport's layer over a one-rank expert-parallel group:
// Fig. 15 trains the pipeline the distributed figures price.
type MoEFFN struct {
	Cfg    moe.Config
	Router *Linear
	// W1 and W2 wrap the tensors of experts, so the optimizer updates the
	// weights the transport reads.
	W1, W2 []*Param

	experts *moe.ExpertParams
	layer   *transport.Layer
	opts    moe.PipelineOpts
	// forward state for Backward
	probs *tensor.Tensor
	pft   *moe.PFT
	state *moe.PFTFwdState
	// persistent router-backward scratch ([S, E], fixed for a fixed S)
	dProbs, dLogits *tensor.Tensor
}

// NewMoEFFN builds the block over the one-rank cluster c; Forward and
// Backward run inside c.Run.
func NewMoEFFN(rng *tensor.RNG, c *simrt.Cluster, cfg moe.Config, policy moe.DropPolicy) *MoEFFN {
	m := &MoEFFN{
		Cfg:     cfg,
		Router:  NewLinear(rng, cfg.HModel, cfg.NumExperts, 0.02),
		experts: moe.NewExpertParams(rng, cfg.NumExperts, cfg.HModel, cfg.HFFN),
		layer:   transport.New(transport.PFT, c, c.WorldGroup(), cfg),
		opts:    moe.PipelineOpts{SaveForBackward: true, DropPolicy: policy},
	}
	for e := range m.experts.W1 {
		m.W1 = append(m.W1, NewParam(m.experts.W1[e]))
		m.W2 = append(m.W2, NewParam(m.experts.W2[e]))
	}
	return m
}

// Forward routes x [S, H] through the block on rank r.
func (m *MoEFFN) Forward(r *simrt.Rank, x *tensor.Tensor) *tensor.Tensor {
	logits := m.Router.Forward(x)
	m.probs = ensureShape(m.probs, logits.Rows(), logits.Cols())
	m.probs.Copy(logits)
	tensor.SoftmaxRows(m.probs)
	routing := moe.TopKRouting(logits, m.probs, m.Cfg.TopK)
	res := m.layer.Forward(r, x.Rows(), x, routing, m.experts, nil, m.opts)
	m.pft, m.state = res.PFT, res.State
	return res.Output
}

// Backward propagates dy [S, H] through the block on rank r, accumulating
// router and expert gradients, and returns dX: the transport's data-path
// gradient plus the router's, which flows from the combine weights'
// gradients through the softmax.
func (m *MoEFFN) Backward(r *simrt.Rank, dy *tensor.Tensor) *tensor.Tensor {
	g := m.state.Backward(r, dy, m.experts, m.opts)
	m.state = nil
	for e := range m.W1 {
		m.W1[e].G.Add(g.DW1[e])
		m.W2[e].G.Add(g.DW2[e])
	}

	// Combine weight i is probs[token, expert] of PFT entry i; softmax
	// backward turns per-probability grads into logit grads.
	s, e := m.probs.Rows(), m.probs.Cols()
	m.dProbs = ensureShape(m.dProbs, s, e)
	m.dProbs.Zero()
	for i, dw := range g.DCombineWeights {
		m.dProbs.Row(m.pft.TokenIDs[i])[m.pft.ExpertIDs[i]] += dw
	}
	m.dLogits = ensureShape(m.dLogits, s, e)
	for t := 0; t < s; t++ {
		p := m.probs.Row(t)
		dp := m.dProbs.Row(t)
		var dot float32
		for j, v := range dp {
			dot += v * p[j]
		}
		dst := m.dLogits.Row(t)
		for j := range dst {
			dst[j] = p[j] * (dp[j] - dot)
		}
	}
	g.DX.Add(m.Router.Backward(m.dLogits))
	return g.DX
}

// Params returns all trainable parameters of the block.
func (m *MoEFFN) Params() []*Param {
	out := []*Param{m.Router.P}
	for e := range m.W1 {
		out = append(out, m.W1[e], m.W2[e])
	}
	return out
}
