package bench

import (
	"fmt"
	"io"
	"sort"

	"xmoe/internal/netsim"
	"xmoe/internal/topology"
)

// Figure18AlltoAllScaling regenerates Appendix D (Figs. 18-19): the
// all-to-all collective time distribution over many runs while scaling
// from 8 to 1024 GPUs. Three regimes should appear: rising latency up to
// 32 GPUs, a stable region to 256 (one rack), and a sharp climb with
// frequent >500 ms outliers at 512 and 1024 GPUs.
func Figure18AlltoAllScaling(w io.Writer, opts Options) []Row {
	m := topology.Frontier()
	gpuCounts := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	runs := 1000
	if opts.Quick {
		gpuCounts = []int{8, 64, 512}
		runs = 120
	}
	// MoE-training-like payload: ~32 MiB per rank spread over the group.
	const perRankBytes = 32 << 20

	var rows []Row
	for _, g := range gpuCounts {
		net := netsim.New(m, opts.Seed+uint64(g))
		net.JobRanks = g
		ranks := make([]int, g)
		for i := range ranks {
			ranks[i] = i
		}
		per := int64(perRankBytes / g)
		send := make([][]int64, g)
		for i := range send {
			send[i] = make([]int64, g)
			for j := range send[i] {
				if i != j {
					send[i][j] = per
				}
			}
		}
		times := make([]float64, runs)
		outliers := 0
		var sum float64
		for r := 0; r < runs; r++ {
			c := net.AlltoAllV(ranks, send)
			times[r] = c.Seconds
			sum += c.Seconds
			if c.Seconds > 0.5 {
				outliers++
			}
		}
		sort.Float64s(times)
		key := fmt.Sprint("GPUs=", g, "/")
		rows = append(rows, Row{key + "mean", "ms", sum / float64(runs) * 1e3, 0},
			Row{key + "p50", "ms", times[runs/2] * 1e3, 0}, Row{key + "p99", "ms", times[runs*99/100] * 1e3, 0},
			Row{key + "outliers >500ms", "count", float64(outliers), 0})
	}
	return render(w, "Figures 18/19: all-to-all collective time vs scale over 1000 runs (120 with -quick), Frontier", rows,
		"paper: latency rises to 32 GPUs, stays stable to 256 (one rack), then climbs",
		"sharply with frequent >500 ms outliers at 512/1024 GPUs -> EP capped at 256")
}
