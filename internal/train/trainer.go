package train

import (
	"fmt"
	"math"

	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

// Adam is a standard Adam optimizer over a parameter set.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	step                  int
	m, v                  []*tensor.Tensor
	params                []*Param
}

// NewAdam builds the optimizer for the given parameters.
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	for _, p := range params {
		a.m = append(a.m, tensor.New(p.W.Shape()...))
		a.v = append(a.v, tensor.New(p.W.Shape()...))
	}
	return a
}

// Step applies one update and zeroes the gradients.
func (a *Adam) Step() {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.G.Data {
			m.Data[j] = float32(a.Beta1)*m.Data[j] + float32(1-a.Beta1)*g
			v.Data[j] = float32(a.Beta2)*v.Data[j] + float32(1-a.Beta2)*g*g
			mh := float64(m.Data[j]) / bc1
			vh := float64(v.Data[j]) / bc2
			p.W.Data[j] -= float32(a.LR * mh / (math.Sqrt(vh) + a.Eps))
		}
		p.ZeroGrad()
	}
}

// MarkovCorpus is a synthetic language with learnable order-1 structure:
// each token deterministically prefers a small successor set with noise,
// so the LM loss has headroom to fall well below log(V).
type MarkovCorpus struct {
	Vocab int
	rng   *tensor.RNG
	cur   int
}

// NewMarkovCorpus builds a corpus over the given vocabulary.
func NewMarkovCorpus(vocab int, seed uint64) *MarkovCorpus {
	return &MarkovCorpus{Vocab: vocab, rng: tensor.NewRNG(seed), cur: 0}
}

// Next returns the next token: with probability 0.8 the deterministic
// successor (3*cur+1 mod V), otherwise one of two alternates.
func (c *MarkovCorpus) Next() int {
	r := c.rng.Float64()
	switch {
	case r < 0.80:
		c.cur = (3*c.cur + 1) % c.Vocab
	case r < 0.90:
		c.cur = (5*c.cur + 2) % c.Vocab
	default:
		c.cur = c.rng.Intn(c.Vocab)
	}
	return c.cur
}

// Sequence returns the next n tokens.
func (c *MarkovCorpus) Sequence(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = c.Next()
	}
	return out
}

// LMConfig configures the validation language model.
type LMConfig struct {
	Vocab  int
	SeqLen int
	Layers int
	MoE    moe.Config
	Policy moe.DropPolicy
	LR     float64
	Seed   uint64
}

// DefaultLMConfig returns the scaled-down 10.1B-config analogue used by
// the Fig. 15 reproduction: same expert granularity ratios (E=16, k=4,
// HFFN < H), laptop-scale dimensions.
func DefaultLMConfig(policy moe.DropPolicy) LMConfig {
	return LMConfig{
		Vocab:  64,
		SeqLen: 32,
		Layers: 2,
		MoE: moe.Config{
			NumExperts:     16,
			TopK:           4,
			HModel:         48,
			HFFN:           24,
			CapacityFactor: 1.25,
			BytesPerElem:   2,
		},
		Policy: policy,
		LR:     3e-3,
		Seed:   1234,
	}
}

// LM is the MoE transformer language model.
type LM struct {
	Cfg    LMConfig
	Embed  *Embedding
	Blocks []*block
	Head   *Linear
	opt    *Adam
	// cluster is the one-rank cluster the MoE blocks' transport runs on;
	// Step runs each forward and backward inside its Run.
	cluster *simrt.Cluster
}

type block struct {
	attn *Attention
	ffn  *MoEFFN
}

// NewLM builds and initialises the model.
func NewLM(cfg LMConfig) *LM {
	rng := tensor.NewRNG(cfg.Seed)
	lm := &LM{
		Cfg:     cfg,
		Embed:   NewEmbedding(rng, cfg.Vocab, cfg.MoE.HModel),
		Head:    NewLinear(rng, cfg.MoE.HModel, cfg.Vocab, 0.02),
		cluster: simrt.NewCluster(topology.Frontier(), 1, cfg.Seed),
	}
	for i := 0; i < cfg.Layers; i++ {
		lm.Blocks = append(lm.Blocks, &block{
			attn: NewAttention(rng, cfg.MoE.HModel),
			ffn:  NewMoEFFN(rng, lm.cluster, cfg.MoE, cfg.Policy),
		})
	}
	params := []*Param{lm.Embed.P, lm.Head.P}
	for _, b := range lm.Blocks {
		params = append(params, b.attn.Params()...)
		params = append(params, b.ffn.Params()...)
	}
	lm.opt = NewAdam(params, cfg.LR)
	return lm
}

// Step runs one training step on a sequence (input ids -> next-token
// targets) and returns the mean cross-entropy loss.
func (lm *LM) Step(ids, targets []int) float64 {
	var loss float64
	err := lm.cluster.Run(func(r *simrt.Rank) error {
		l, dLogits, acts := lm.forward(r, ids, targets)
		lm.backward(r, dLogits, acts)
		loss = l
		return nil
	})
	if err != nil {
		// The one rank ran only this model's own code; a failure is a
		// bug, surfaced as the panic it was inside the body.
		panic(err)
	}
	lm.opt.Step()
	return loss
}

type actsCache struct {
	resAttn []*tensor.Tensor
	resFFN  []*tensor.Tensor
}

// forward computes logits, loss, and the loss gradient w.r.t. logits.
func (lm *LM) forward(r *simrt.Rank, ids, targets []int) (float64, *tensor.Tensor, *actsCache) {
	x := lm.Embed.Forward(ids)
	acts := &actsCache{}
	for _, b := range lm.Blocks {
		a := b.attn.Forward(x)
		a.Add(x) // residual
		acts.resAttn = append(acts.resAttn, a)
		f := b.ffn.Forward(r, a)
		f.Add(a) // residual
		acts.resFFN = append(acts.resFFN, f)
		x = f
	}
	logits := lm.Head.Forward(x)
	logProbs := logits.Clone()
	tensor.LogSoftmaxRows(logProbs)

	s := len(ids)
	var loss float64
	dLogits := tensor.New(s, lm.Cfg.Vocab)
	inv := float32(1 / float64(s))
	for t := 0; t < s; t++ {
		loss -= float64(logProbs.At(t, targets[t]))
		// dlogits = softmax - onehot, averaged.
		lp := logProbs.Row(t)
		dst := dLogits.Row(t)
		for j := range dst {
			dst[j] = float32(math.Exp(float64(lp[j]))) * inv
		}
		dst[targets[t]] -= inv
	}
	return loss / float64(s), dLogits, acts
}

// backward propagates through the whole network.
func (lm *LM) backward(r *simrt.Rank, dLogits *tensor.Tensor, acts *actsCache) {
	dx := lm.Head.Backward(dLogits)
	for i := len(lm.Blocks) - 1; i >= 0; i-- {
		b := lm.Blocks[i]
		// FFN residual: dx flows to both branches.
		dFFN := b.ffn.Backward(r, dx)
		dFFN.Add(dx)
		// Attention residual.
		dAttn := b.attn.Backward(dFFN)
		dAttn.Add(dFFN)
		dx = dAttn
	}
	lm.Embed.Backward(dx)
}

// LossCurve trains the model for iters steps on a fresh Markov corpus and
// returns the per-step training loss (the Fig. 15 series).
func LossCurve(cfg LMConfig, iters int) []float64 {
	lm := NewLM(cfg)
	corpus := NewMarkovCorpus(cfg.Vocab, cfg.Seed+99)
	losses := make([]float64, iters)
	for i := 0; i < iters; i++ {
		seq := corpus.Sequence(cfg.SeqLen + 1)
		losses[i] = lm.Step(seq[:cfg.SeqLen], seq[1:])
	}
	return losses
}

// Smooth returns a trailing moving average of xs over the given window,
// for plotting comparability.
func Smooth(xs []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	out := make([]float64, len(xs))
	var run float64
	for i, v := range xs {
		run += v
		if i >= window {
			run -= xs[i-window]
			out[i] = run / float64(window)
		} else {
			out[i] = run / float64(i+1)
		}
	}
	return out
}

// Mean returns the mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// String renders a config for logs.
func (cfg LMConfig) String() string {
	return fmt.Sprintf("LM{V=%d S=%d L=%d E=%d k=%d H=%d F=%d policy=%d}",
		cfg.Vocab, cfg.SeqLen, cfg.Layers, cfg.MoE.NumExperts, cfg.MoE.TopK,
		cfg.MoE.HModel, cfg.MoE.HFFN, cfg.Policy)
}
