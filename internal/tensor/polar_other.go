//go:build !amd64

package tensor

// polarScale is polarScaleGo here: the Go loop is the one body.
func polarScale(s []float64) { polarScaleGo(s) }

// polarVec is false here; the polar tests' switch has no other body to
// select.
var polarVec = false
