// Package model defines the transformer/MoE architecture shapes the paper
// evaluates (Table 3's Small/Medium/Large/Super DeepSeek-style configs,
// the Table 5 SR/LR variants, and the Mconv/Mspec size-equivalent pair of
// §3.2) together with parameter and FLOP accounting.
package model

import "fmt"

// Shape describes one MoE transformer architecture.
type Shape struct {
	// Name identifies the configuration (e.g. "small").
	Name string
	// SeqLen is the training sequence length.
	SeqLen int
	// HModel is the model hidden dimension.
	HModel int
	// HFFN is the expert FFN intermediate dimension.
	HFFN int
	// NumExperts is the expert count per MoE layer.
	NumExperts int
	// TopK is the routed experts per token.
	TopK int
	// Layers is the number of transformer layers (all carry MoE FFNs).
	Layers int
	// VocabSize is the tokenizer vocabulary size (not given in Table 3;
	// fixed at 32000 across configs).
	VocabSize int
}

// Table 3 configurations.

// Small returns the 10.1B-parameter DeepSeek-MoE-style config.
func Small() Shape {
	return Shape{Name: "small", SeqLen: 2048, HModel: 2048, HFFN: 1408,
		NumExperts: 64, TopK: 6, Layers: 28, VocabSize: 32000}
}

// Medium returns the 55.2B DeepSeek-v2-style config.
func Medium() Shape {
	return Shape{Name: "medium", SeqLen: 4096, HModel: 5120, HFFN: 1536,
		NumExperts: 128, TopK: 6, Layers: 28, VocabSize: 32000}
}

// Large returns the 201.4B DeepSeek-v3-style config.
func Large() Shape {
	return Shape{Name: "large", SeqLen: 4096, HModel: 7168, HFFN: 2048,
		NumExperts: 256, TopK: 8, Layers: 28, VocabSize: 32000}
}

// Super returns the 545.4B config trained on 1024 GPUs.
func Super() Shape {
	return Shape{Name: "super", SeqLen: 4096, HModel: 7168, HFFN: 2560,
		NumExperts: 256, TopK: 8, Layers: 61, VocabSize: 32000}
}

// SmallSR returns Table 5's sequence-reduced Small variant (s=1024).
func SmallSR() Shape {
	s := Small()
	s.Name = "small-sr"
	s.SeqLen = 1024
	return s
}

// SmallLR returns Table 5's layer-reduced Small variant (14 layers).
func SmallLR() Shape {
	s := Small()
	s.Name = "small-lr"
	s.Layers = 14
	return s
}

// ConvSpecPair returns the size-equivalent conventional (Mconv) and
// expert-specialized (Mspec) models of §3.2 Table 1, built from a
// GPT-3-6.7B-style base (h=4096, h'=16384) with e=16 and fine-grained
// factor m=8 (Fig. 3's configuration).
func ConvSpecPair() (conv, spec Shape) {
	conv = Shape{Name: "m-conv", SeqLen: 2048, HModel: 4096, HFFN: 16384,
		NumExperts: 16, TopK: 1, Layers: 32, VocabSize: 32000}
	spec = Shape{Name: "m-spec", SeqLen: 2048, HModel: 4096, HFFN: 2048,
		NumExperts: 128, TopK: 8, Layers: 32, VocabSize: 32000}
	return conv, spec
}

// ExpertParamsPerLayer returns the parameters of one layer's experts: E
// experts, each a two-matrix FFN [H, HFFN] + [HFFN, H] (Table 1's 2h'h
// per expert).
func (s Shape) ExpertParamsPerLayer() int64 {
	return int64(s.NumExperts) * 2 * int64(s.HModel) * int64(s.HFFN)
}

// RouterParamsPerLayer returns the gate projection parameters H x E.
func (s Shape) RouterParamsPerLayer() int64 {
	return int64(s.HModel) * int64(s.NumExperts)
}

// AttentionParamsPerLayer returns the dense attention parameters 4H².
func (s Shape) AttentionParamsPerLayer() int64 {
	return 4 * int64(s.HModel) * int64(s.HModel)
}

// EmbeddingParams returns input+output embedding parameters (untied).
func (s Shape) EmbeddingParams() int64 {
	return 2 * int64(s.VocabSize) * int64(s.HModel)
}

// TotalParams returns the full parameter count.
func (s Shape) TotalParams() int64 {
	perLayer := s.ExpertParamsPerLayer() + s.RouterParamsPerLayer() + s.AttentionParamsPerLayer()
	return int64(s.Layers)*perLayer + s.EmbeddingParams()
}

// ActivatedParams returns the parameters touched per token: attention,
// router, k of E experts, and the embeddings.
func (s Shape) ActivatedParams() int64 {
	expertAct := int64(s.TopK) * 2 * int64(s.HModel) * int64(s.HFFN)
	perLayer := expertAct + s.RouterParamsPerLayer() + s.AttentionParamsPerLayer()
	return int64(s.Layers)*perLayer + s.EmbeddingParams()
}

// FLOPsPerToken returns training FLOPs per token: the standard 6N
// approximation over activated parameters (2N forward, 4N backward).
func (s Shape) FLOPsPerToken() float64 {
	return 6 * float64(s.ActivatedParams())
}

// WithLayers returns a copy with a different layer count (Appendix E
// depth sweep).
func (s Shape) WithLayers(l int) Shape {
	s.Layers = l
	s.Name = fmt.Sprintf("%s-l%d", s.Name, l)
	return s
}

// WithTopK returns a copy with a different routing fan-out (Appendix E
// top-k sweep).
func (s Shape) WithTopK(k int) Shape {
	s.TopK = k
	s.Name = fmt.Sprintf("%s-k%d", s.Name, k)
	return s
}
