//go:build !race

package rbd

// allocSlack is what a steady-state allocation ceiling allows above its
// measured count: a garbage collection may empty the pools while a count
// runs.
const allocSlack = 2
