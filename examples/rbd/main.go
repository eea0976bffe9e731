// RBD demo: quantify node-level token redundancy for a DeepSeek-style
// routing (paper Fig. 4) and show Redundancy-Bypassing Dispatch moving
// the redundant copies off the slow inter-node links (paper Fig. 12).
//
//	go run ./examples/rbd
package main

import (
	"fmt"
	"log"

	"xmoe/internal/moe"
	"xmoe/internal/rbd"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

func main() {
	m := topology.Frontier()

	// Part 1: redundancy analysis (Fig. 4).
	fmt.Println("node-level redundancy of dispatched tokens (256 experts, k=8):")
	fmt.Printf("%8s %10s %10s\n", "EP size", "analytic", "measured")
	for _, ep := range []int{16, 32, 64, 128, 256} {
		nodes := ep / m.GPUsPerNode
		analytic := rbd.ExpectedRedundancyRate(256, 8, nodes)
		rt := moe.SyntheticRouting(tensor.NewRNG(uint64(ep)), 2048, 256, 8, 0)
		measured := rbd.AnalyzeRedundancy(rt, func(e int) int { return e / (256 / nodes) }, -1)
		fmt.Printf("%8d %9.1f%% %9.1f%%\n", ep, analytic*100, measured.Rate()*100)
	}

	// Part 2: dispatch through RBD on 32 simulated GCDs (4 nodes),
	// the paper's Fig. 12 configuration.
	cfg := moe.Config{
		NumExperts:     256,
		TopK:           8,
		HModel:         7168,
		HFFN:           2048,
		CapacityFactor: 1.25,
		BytesPerElem:   2,
	}
	const sTok = 1024
	cluster := simrt.NewCluster(m, 32, 11)
	cluster.Net.DisableCongestion = true
	g := cluster.WorldGroup()
	d := rbd.NewDispatcher(cluster, g, cfg)

	ranks, err := cluster.RunCollect(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(r.ID))
		rt := moe.SyntheticRouting(rng, sTok, cfg.NumExperts, cfg.TopK, 0)
		pft := moe.BuildPFT(rt, cfg.NumExperts, cfg.Capacity(sTok), moe.DropByCapacityWeight)
		st, _ := d.Dispatch(r, pft, nil, tensor.NewRNG(99+uint64(r.ID)), moe.PipelineOpts{})
		d.Combine(r, st, nil, sTok, moe.PipelineOpts{})
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nRBD dispatch stage times on 32 GCDs, Large-model layer (avg ms/rank):")
	var s1, s2, inst float64
	for _, rk := range ranks {
		s1 += rk.Trace.Total(rbd.StageS1A2A)
		s2 += rk.Trace.Total(rbd.StageS2A2A)
		inst += rk.Trace.Total(rbd.StageS1Inst) + rk.Trace.Total(rbd.StageS2Inst) +
			rk.Trace.Total(rbd.StageReconstruct)
	}
	n := float64(len(ranks))
	fmt.Printf("  S1 inter-node a2a (pilots only): %6.2f ms\n", s1/n*1e3)
	fmt.Printf("  S2 intra-node a2a (replicas):    %6.2f ms\n", s2/n*1e3)
	fmt.Printf("  instantiation + reconstruction:  %6.2f ms\n", inst/n*1e3)
	fmt.Println("\npaper: RBD cuts inter-node dispatch time 52.5%, overall dispatch speedup 1.55x")
}
