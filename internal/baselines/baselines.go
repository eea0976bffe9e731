// Package baselines defines the four training systems the paper compares
// — DeepSpeed-MoE, DeepSpeed-TED, Tutel, and X-MoE — as configurations of
// the shared pipeline, parallelism, kernel-quality, and memory machinery,
// plus the evaluation-methodology sweep of §5.1 (EP sizes, ZeRO stages, TP
// degrees, maximum power-of-two micro-batch under the memory limit).
package baselines

import (
	"xmoe/internal/memmodel"
	"xmoe/internal/moe"
	"xmoe/internal/parallel"
	"xmoe/internal/topology"
	"xmoe/internal/transport"
)

// System identifies a training framework.
type System int

const (
	// DeepSpeedMoE is the ZeRO-DP + EP baseline with the dense-mask
	// padded pipeline [31].
	DeepSpeedMoE System = iota
	// DeepSpeedTED adds tensor-slicing parallelism (TP+EP+DP) over the
	// same padded pipeline [34].
	DeepSpeedTED
	// Tutel uses adaptive parallelism with tuned (CUDA-centric) kernels
	// and a sparse dispatcher, but forces fp32 combine buffers on AMD
	// [16].
	Tutel
	// XMoE is the paper's system: PFT padding-free pipeline, RBD,
	// SSMB hybrid parallelism, Triton-class portable kernels.
	XMoE
)

// String names the system as in the paper's figures.
func (s System) String() string {
	switch s {
	case DeepSpeedMoE:
		return "DeepSpeed-MoE"
	case DeepSpeedTED:
		return "DeepSpeed-TED"
	case Tutel:
		return "Tutel"
	case XMoE:
		return "X-MoE"
	}
	return "unknown"
}

// Systems returns all four systems in the paper's plotting order.
func Systems() []System { return []System{DeepSpeedMoE, DeepSpeedTED, Tutel, XMoE} }

// Config captures how a system drives the shared machinery: the transport
// its MoE layers run and the kernels that build their buffers, which the
// step simulator and the memory model both read from here.
type Config struct {
	Sys System
	// Transport is the transport the system's MoE layers run: padded for
	// the baselines, RBD (over the PFT pipeline) for X-MoE.
	Transport transport.Kind
	// Kernels selects the gating/dispatch kernel quality class.
	Kernels moe.KernelProfile
	// DropPolicy is the system's token-dropping rule.
	DropPolicy moe.DropPolicy
	// CombineBytes is the combine-buffer element size on this platform.
	CombineBytes int
	// SupportsTP: the sweep may raise TP above 1.
	SupportsTP bool
	// SSMB: sequence-sharded MoE blocks (X-MoE only).
	SSMB bool
	// Placement is the EP/DP placement strategy.
	Placement parallel.Placement
	// MaxEP caps the expert-parallel group size (X-MoE limits EP to one
	// rack = 256 GPUs after the Appendix D characterisation).
	MaxEP int
}

// For returns the system configuration on the given machine. The machine
// matters: Tutel's fp32-combine quirk is AMD-specific (Table 4 vs Table
// 5).
func For(sys System, m *topology.Machine) Config {
	onAMD := m.Device.Name == "MI250X-GCD"
	switch sys {
	case DeepSpeedMoE:
		return Config{
			Sys:        sys,
			Transport:  transport.Padded,
			Kernels:    moe.KernelsFallback,
			DropPolicy: moe.DropNegativeThenPosition,
			Placement:  parallel.EPFirst,
		}
	case DeepSpeedTED:
		return Config{
			Sys:        sys,
			Transport:  transport.Padded,
			Kernels:    moe.KernelsFallback,
			DropPolicy: moe.DropNegativeThenPosition,
			SupportsTP: true,
			Placement:  parallel.EPFirst,
		}
	case Tutel:
		cb := 0
		if onAMD {
			cb = 4
		}
		return Config{
			Sys:          sys,
			Transport:    transport.Padded,
			Kernels:      moe.KernelsVendor,
			DropPolicy:   moe.DropNegativeThenPosition,
			CombineBytes: cb,
			Placement:    parallel.EPFirst,
		}
	default: // XMoE
		// EP groups stay contiguous (EP-first) so RBD sees node-level
		// expert co-location; the DP-first replica placement of Appendix
		// C.1 is analysed separately (it trades away RBD's redundancy).
		return Config{
			Sys:        sys,
			Transport:  transport.RBD,
			Kernels:    moe.KernelsTriton,
			DropPolicy: moe.DropByCapacityWeight,
			SupportsTP: true,
			SSMB:       true,
			Placement:  parallel.EPFirst,
			MaxEP:      256,
		}
	}
}

// PipelineOpts converts the system config into moe pipeline options.
func (c Config) PipelineOpts() moe.PipelineOpts {
	return moe.PipelineOpts{
		DropPolicy:   c.DropPolicy,
		Kernels:      c.Kernels,
		CombineBytes: c.CombineBytes,
	}
}

// MemSetup is the system's memory-model setup under a plan and
// micro-batch: the one place a system's memory accounting is described,
// priced by the same transport and kernels its MoE layers run.
func (c Config) MemSetup(plan parallel.Plan, microBatch int) memmodel.Setup {
	return memmodel.Setup{
		Plan:           plan,
		MicroBatch:     microBatch,
		Transport:      c.Transport,
		CapacityFactor: 1.25,
		CombineBytes:   c.CombineBytes,
		Kernels:        c.Kernels,
	}
}
