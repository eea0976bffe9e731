package kernels

import "xmoe/internal/tensor"

// GatherBackward is GatherBackwardInto into a fresh zero-filled
// [numTokens, H] tensor: the reference the pooled calls are held to.
func GatherBackward(dDispatchIn *tensor.Tensor, tokenIDs []int, numTokens int) *tensor.Tensor {
	out := tensor.New(numTokens, dDispatchIn.Cols())
	GatherBackwardInto(out, dDispatchIn, tokenIDs)
	return out
}

// ScatterCombine is ScatterCombineInto into a fresh zero-filled
// [numTokens, H] tensor: the reference the pooled calls are held to.
func ScatterCombine(mlpOut *tensor.Tensor, tokenIDs []int, weights []float32, numTokens int) *tensor.Tensor {
	out := tensor.New(numTokens, mlpOut.Cols())
	ScatterCombineInto(out, mlpOut, tokenIDs, weights)
	return out
}
