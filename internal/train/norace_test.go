//go:build !race

package train

// raceEnabled reports a -race build, whose slowdown some tests skip.
const raceEnabled = false
