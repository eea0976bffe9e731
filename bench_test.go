// Package xmoe's root benchmark suite regenerates every table, figure and
// ablation of internal/bench's Experiments registry, one sub-benchmark per
// entry, in quick mode so `go test -bench=.` stays tractable; full-fidelity
// runs go through cmd/xmoe-bench (no -quick).
//
//	go test -run=NONE -bench=. -benchmem -benchtime=1x .
package xmoe_test

import (
	"io"
	"testing"

	"xmoe/internal/bench"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for b.Loop() {
				e.Run(io.Discard, bench.Options{Seed: 42, Quick: true})
			}
		})
	}
}
