//go:build race

package rbd

// allocSlack is what a steady-state allocation ceiling allows above its
// measured count. The race detector's sync.Pool drops a quarter of what it
// is given, so about one call in four draws its call tables and scratch
// fresh and regrows them.
const allocSlack = 24
