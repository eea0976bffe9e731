// Package moe implements the paper's core contribution: the
// expert-specialized Mixture-of-Experts training pipeline, X-MoE's
// padding-free form built on the PFT (Padding-Free Token buffer) data
// structure with ERI-arrays (paper §4.1, Listing 1). The conventional
// zero-padded form of GShard/DeepSpeed-MoE-style frameworks (the
// baselines) is the same pipeline body over a PFT laid out with capacity
// padding, priced with the baselines' kernels.
package moe

import (
	"fmt"
	"math"

	"xmoe/internal/model"
)

// Config describes one MoE layer's architecture and execution precision.
type Config struct {
	// NumExperts is the total expert count E of the layer.
	NumExperts int
	// TopK is the number of experts activated per token (large for
	// expert-specialized MoEs: 6-8 in DeepSeek configs).
	TopK int
	// HModel is the model (token) hidden dimension H.
	HModel int
	// HFFN is the expert FFN intermediate dimension H_FFN (shrunk by the
	// fine-grained factor m in expert-specialized MoEs).
	HFFN int
	// CapacityFactor is the GShard-style capacity factor c; expert
	// capacity is c * (perceived tokens per expert). The paper uses 1.25.
	CapacityFactor float64
	// BytesPerElem is the activation element size on the wire and in
	// memory (2 for bf16/fp16 training).
	BytesPerElem int
}

// LayerOf is the MoE layer of a model shape as every figure of the paper
// configures it (§5.1): capacity factor 1.25, bf16 on the wire.
func LayerOf(sh model.Shape) Config {
	return Config{NumExperts: sh.NumExperts, TopK: sh.TopK, HModel: sh.HModel, HFFN: sh.HFFN,
		CapacityFactor: 1.25, BytesPerElem: 2}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.NumExperts <= 0:
		return fmt.Errorf("moe: NumExperts must be positive, got %d", c.NumExperts)
	case c.TopK <= 0 || c.TopK > c.NumExperts:
		return fmt.Errorf("moe: TopK %d outside [1, %d]", c.TopK, c.NumExperts)
	case c.HModel <= 0 || c.HFFN <= 0:
		return fmt.Errorf("moe: non-positive hidden dims H=%d HFFN=%d", c.HModel, c.HFFN)
	case !(c.CapacityFactor > 0) || math.IsInf(c.CapacityFactor, 1):
		return fmt.Errorf("moe: CapacityFactor must be positive and finite, got %g", c.CapacityFactor)
	case c.BytesPerElem <= 0:
		return fmt.Errorf("moe: BytesPerElem must be positive, got %d", c.BytesPerElem)
	}
	return nil
}

// Capacity returns the per-expert token capacity for s local tokens:
// ceil(c * s * k / E), the "1.25x average perceived tokens per-expert"
// used throughout the paper's evaluation (§5.1).
func (c Config) Capacity(s int) int {
	avg := float64(s) * float64(c.TopK) / float64(c.NumExperts)
	cap := int(c.CapacityFactor*avg + 0.999999)
	if cap < 1 {
		cap = 1
	}
	return cap
}
