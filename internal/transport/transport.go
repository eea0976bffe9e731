// Package transport is the one way to run an MoE layer over an
// expert-parallel group. The paper's three dispatchers — the zero-padded
// baseline (§3.1), padding-free PFT (§4.1) and hierarchical RBD (§4.2) —
// run one MoE layer body (moe.Forward, and the Backward of the
// *moe.PFTFwdState it saves) and differ only in the moe.Exchange that
// moves the rows, and everything above them (the distributed trainer, the
// step simulator, the bench harnesses, the CLIs) selects one by Kind and
// drives it through a Layer.
// What a transport needs built outside the rank bodies (RBD's
// Dispatcher), which entry point builds its exchange and which options it
// cannot honour are known here and nowhere else. The package sits above
// moe and rbd because moe cannot import rbd.
package transport

import (
	"fmt"

	"xmoe/internal/moe"
	"xmoe/internal/rbd"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// Kind names a transport.
type Kind int

const (
	// PFT is X-MoE's padding-free pipeline over the flat uneven all-to-all.
	PFT Kind = iota
	// Padded is the conventional capacity-padded pipeline of the baselines.
	Padded
	// RBD is the layer body over hierarchical redundancy-bypassing
	// dispatch, forward and backward.
	RBD
)

// kinds holds what is known about a transport before any cluster exists:
// its CLI name and the options it rejects on top of PipelineOpts.Check.
var kinds = [...]struct {
	name  string
	check func(moe.PipelineOpts) error
}{
	PFT:    {"pft", moe.PipelineOpts.Check},
	Padded: {"padded", moe.CheckPaddedOpts},
	RBD:    {"rbd", rbd.CheckOpts},
}

// Kinds returns every transport, in the order the tables print them.
func Kinds() []Kind { return []Kind{PFT, Padded, RBD} }

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kinds) {
		return fmt.Sprintf("transport.Kind(%d)", int(k))
	}
	return kinds[k].name
}

// Parse maps a CLI or config name to its Kind. It is the only place an
// unknown transport name can appear; the error lists the accepted ones.
func Parse(name string) (Kind, error) {
	for k, info := range kinds {
		if info.name == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("transport: unknown transport %q (want one of %v)", name, Kinds())
}

// Check reports whether transport k can run a cfg layer under opts: the
// generic PipelineOpts.Check, what k itself rejects (per-expert capacities
// on padded, a CombineBytes override on rbd), and the one rule that needs
// cfg — a capacity vector must have an entry per expert, or the PFT build
// panics mid-step. A Kind outside Kinds() is rejected as option
// "Transport". Errors are *moe.OptionError. Callers that validate a
// configuration before building a cluster use this; Layer.Check is the
// same answer once a layer exists.
func (k Kind) Check(cfg moe.Config, opts moe.PipelineOpts) error {
	if k < 0 || int(k) >= len(kinds) {
		return &moe.OptionError{Opt: "Transport", Detail: fmt.Sprintf("transport: no such transport %v", k)}
	}
	if err := kinds[k].check(opts); err != nil {
		return err
	}
	if opts.CapacityByExpert != nil && len(opts.CapacityByExpert) != cfg.NumExperts {
		return &moe.OptionError{Opt: "CapacityByExpert",
			Detail: fmt.Sprintf("transport: CapacityByExpert has %d entries, the layer has %d experts",
				len(opts.CapacityByExpert), cfg.NumExperts)}
	}
	return nil
}

// Layer runs one MoE layer of a fixed architecture over a fixed EP group
// through the one layer body; only the exchange its forward plugs in
// differs by transport. It is built once, outside the rank bodies, and
// shared by the group's ranks; Forward, and the Backward of the state it
// returns, are called from inside them. d, RBD's dispatcher, holds the
// per-node communicators and the expert-to-node tables every rank of the
// group shares.
type Layer struct {
	kind Kind
	ep   *simrt.Group
	cfg  moe.Config
	d    *rbd.Dispatcher
}

// New builds the kind transport's layer of architecture cfg over EP group
// ep of cluster c. It must be called outside Cluster.Run (RBD creates its
// per-node communicators). A Kind outside Kinds() is a programming error.
func New(kind Kind, c *simrt.Cluster, ep *simrt.Group, cfg moe.Config) *Layer {
	if kind < 0 || int(kind) >= len(kinds) {
		panic(fmt.Sprintf("transport: New(%v): no such transport", kind))
	}
	l := &Layer{kind: kind, ep: ep, cfg: cfg}
	if kind == RBD {
		l.d = rbd.NewDispatcher(c, ep, cfg)
	}
	return l
}

// Check is Kind.Check for this layer's transport and architecture.
func (l *Layer) Check(opts moe.PipelineOpts) error { return l.kind.Check(l.cfg, opts) }

// Forward runs the layer's forward pass on rank r for its s local tokens
// (x and params nil in symbolic mode). pilots drives RBD's randomized
// pilot selection and is ignored by the flat transports. With
// opts.SaveForBackward the result's State reverses this pass through
// State.Backward (dOut and params nil in symbolic mode); otherwise State
// is nil, and its Backward panics with an *moe.OptionError.
func (l *Layer) Forward(r *simrt.Rank, s int, x *tensor.Tensor, routing moe.Routing, params *moe.ExpertParams,
	pilots *tensor.RNG, opts moe.PipelineOpts) moe.LayerResult {

	switch l.kind {
	case PFT:
		return moe.PFTForward(r, l.ep, l.cfg, s, x, routing, params, opts)
	case Padded:
		return moe.PaddedForward(r, l.ep, l.cfg, s, x, routing, params, opts)
	}
	return rbd.Forward(r, l.d, l.cfg, s, x, routing, params, pilots, opts)
}
