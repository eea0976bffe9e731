// Command xmoe-topo explores the simulated HPC topologies and
// characterises collective performance on them: link classes and
// bandwidths, rack boundaries, and the Appendix-D all-to-all latency
// characterisation across scales.
package main

import (
	"flag"
	"fmt"
	"os"

	"xmoe/internal/bench"
	"xmoe/internal/netsim"
	"xmoe/internal/prof"
	"xmoe/internal/topology"
)

func main() {
	machine := flag.String("machine", "frontier", "machine profile: frontier or dgx-a100")
	gpus := flag.Int("gpus", 64, "GPU count for the collective cost table")
	bytes := flag.Int64("bytes", 32<<20, "per-rank payload for the collective cost table")
	characterise := flag.Bool("characterize", false, "run the Appendix-D all-to-all characterisation (Figs. 18/19)")
	graph := flag.String("graph", "", "print the event-engine topology graph instead: flat, rail, or noc")
	seed := flag.Uint64("seed", 42, "congestion sampling seed")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	var usage error
	switch {
	case *gpus < 1:
		usage = fmt.Errorf("-gpus %d: want at least 1 GPU", *gpus)
	case *bytes < 0:
		usage = fmt.Errorf("-bytes %d: want a per-rank payload >= 0", *bytes)
	}
	if usage != nil {
		fmt.Fprintln(os.Stderr, "xmoe-topo:", usage)
		os.Exit(2)
	}
	defer prof.StartCPU(*cpuProfile)()

	var m *topology.Machine
	switch *machine {
	case "frontier":
		m = topology.Frontier()
	case "dgx-a100", "dgx":
		m = topology.DGXA100()
	default:
		fmt.Fprintf(os.Stderr, "unknown machine %q\n", *machine)
		os.Exit(2)
	}

	if *graph != "" {
		printGraph(m, *graph, *gpus)
		return
	}

	fmt.Printf("machine %s: %d GPUs/node (%d per fast pair), %d nodes/rack\n",
		m.Name, m.GPUsPerNode, m.GPUsPerPair, m.NodesPerRack)
	fmt.Printf("device %s: %.1f TFLOPs peak, %.0f GB HBM, %.0f GB/s HBM bandwidth\n",
		m.Device.Name, m.Device.PeakFLOPs/1e12, float64(m.Device.MemBytes)/1e9, m.Device.HBMBandwidth/1e9)
	fmt.Println("\nlink classes:")
	for _, c := range []topology.LinkClass{topology.LinkGCDPair, topology.LinkIntraNode,
		topology.LinkInterNode, topology.LinkCrossRack} {
		spec := m.Link(c)
		fmt.Printf("  %-12s %6.0f GB/s  α=%.1f µs\n", c, spec.Bandwidth/1e9, spec.Latency*1e6)
	}

	net := netsim.New(m, *seed)
	net.DisableCongestion = true
	ranks := make([]int, *gpus)
	for i := range ranks {
		ranks[i] = i
	}
	fmt.Printf("\ncollective costs over %d GPUs, %d MiB per rank:\n", *gpus, *bytes>>20)
	a2a := net.AlltoAll(ranks, *bytes/int64(*gpus))
	fmt.Printf("  all-to-all:     %8.2f ms  (inter-node bytes: %d MiB)\n",
		a2a.Seconds*1e3, a2a.InterNodeBytes()>>20)
	ar := net.AllReduce(ranks, *bytes)
	fmt.Printf("  all-reduce:     %8.2f ms\n", ar.Seconds*1e3)
	per := make([]int64, *gpus)
	for i := range per {
		per[i] = *bytes / int64(*gpus)
	}
	ag := net.AllGather(ranks, per)
	fmt.Printf("  all-gather:     %8.2f ms\n", ag.Seconds*1e3)
	fmt.Printf("  barrier:        %8.3f ms\n", net.Barrier(ranks).Seconds*1e3)

	if *characterise {
		bench.Figure18AlltoAllScaling(os.Stdout, bench.Options{Seed: *seed})
	}
}

// printGraph renders an event-engine topology graph: every link with its
// sharing discipline, plus sample routes spanning each hierarchy level.
func printGraph(m *topology.Machine, kind string, gpus int) {
	var g *topology.Graph
	switch kind {
	case "flat":
		if gpus > m.GPUsPerNode {
			// FlatGraph models a single node; build the synthetic
			// all-uniform machine netsim's flat tests use instead.
			g = topology.FlatGraph(topology.Flat(gpus), gpus)
		} else {
			g = topology.FlatGraph(m, gpus)
		}
	case "rail":
		g = topology.RailGraph(m, gpus, 0)
	case "noc":
		g = topology.NoCGraph(m, gpus, 0)
	default:
		fmt.Fprintf(os.Stderr, "unknown graph %q (want flat, rail, or noc)\n", kind)
		os.Exit(2)
	}
	if err := g.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("graph %s: %d ranks on %s, %d links (engine \"event:%s\")\n",
		g.Name, g.NumRanks, g.M.Name, len(g.Links), g.Name)
	fmt.Printf("\n%-4s %-12s %-12s %-9s %10s %9s\n", "id", "name", "class", "sharing", "GB/s", "α (µs)")
	for _, l := range g.Links {
		sharing := "port"
		if l.Shared {
			sharing = "shared"
		}
		bw := "class"
		if !l.ClassBound {
			bw = fmt.Sprintf("%.0f", l.Bandwidth/1e9)
		}
		lat := "class"
		if !l.ClassBound {
			lat = fmt.Sprintf("%.1f", l.Latency*1e6)
		}
		fmt.Printf("%-4d %-12s %-12s %-9s %10s %9s\n", l.ID, l.Name, l.Class, sharing, bw, lat)
	}

	fmt.Println("\nsample routes:")
	var samples [][2]int
	if g.NumRanks > 1 {
		samples = append(samples, [2]int{0, 1})
	}
	if n := g.NumRanks; n > m.GPUsPerPair {
		samples = append(samples, [2]int{0, m.GPUsPerPair}) // cross-pair
	}
	if n := g.NumRanks; n > m.GPUsPerNode {
		samples = append(samples, [2]int{0, n - 1}) // inter-node (last rank)
	}
	for _, s := range samples {
		route := g.Route(s[0], s[1], nil)
		names := make([]string, len(route))
		for i, id := range route {
			names[i] = g.Link(id).Name
		}
		fmt.Printf("  %3d -> %-3d  %v\n", s[0], s[1], names)
	}
}
