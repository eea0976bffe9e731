//go:build !amd64

package tensor

// gelu and mul are their Go loops here: the loops are the one body.
func gelu(out, in []float32, grad bool) { geluGo(out, in, grad) }

func mul(dst, a, b []float32) { mulGo(dst, a, b) }

// geluVec is false here; the GeLU tests' switch has no other body to
// select.
var geluVec = false
