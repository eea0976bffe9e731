package moe

import (
	"fmt"

	"xmoe/internal/kernels"
	"xmoe/internal/perfmodel"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// Trace stage names shared by the PFT and padded pipelines; the Fig. 11
// layer-breakdown experiment aggregates these.
const (
	StageGate        = "gate"
	StageDispatch    = "dispatch" // buffer dispatch: gather kernel or mask einsum
	StageDispatchA2A = "a2a_dispatch"
	StageExperts     = "experts"
	StageCombineA2A  = "a2a_combine"
	StageCombine     = "combine" // buffer combine: scatter kernel or mask einsum
	StageOthers      = "others"  // reorders, metadata exchange
)

// KernelProfile selects the implementation quality of the non-GEMM stages,
// distinguishing the frameworks the paper compares.
type KernelProfile int

const (
	// KernelsTriton is X-MoE's portable kernel suite (§4.1.2).
	KernelsTriton KernelProfile = iota
	// KernelsFallback is the PyTorch-level dense mask pipeline used by
	// DeepSpeed-MoE / DeepSpeed-TED / GShard-style frameworks.
	KernelsFallback
	// KernelsVendor is Tutel's tuned (but CUDA-centric) kernel path,
	// which runs on ROCm via slower ports.
	KernelsVendor
)

// PilotPolicy selects which member of a (token, destination-node) group
// becomes the pilot of the RBD transport (paper §4.2).
type PilotPolicy int

const (
	// PilotRandom picks uniformly at random — the paper's choice, which
	// "helps avoid a biased distribution and creates a balanced workload
	// for alltoall communication" (§4.2).
	PilotRandom PilotPolicy = iota
	// PilotFirstExpert always picks the lowest expert ID, the biased
	// strategy the paper warns against; kept for the ablation benchmark.
	PilotFirstExpert
)

// PipelineOpts configures one MoE layer execution.
type PipelineOpts struct {
	// Numeric executes real float math; otherwise the pipeline is
	// metadata-only (symbolic) and charges time/memory without payloads.
	Numeric bool
	// DropPolicy selects the token-dropping semantics.
	DropPolicy DropPolicy
	// Kernels selects the gating/dispatch/combine kernel quality of the
	// padded pipeline (KernelsVendor is Tutel's sparse dispatcher, any
	// other value the fallback frameworks' dense mask pipeline); the PFT
	// and RBD pipelines always run X-MoE's Triton suite.
	Kernels KernelProfile
	// PilotPolicy selects the RBD transport's pilot-selection strategy
	// (default PilotRandom); the flat transports have no pilots and
	// ignore it.
	PilotPolicy PilotPolicy
	// CombineBytes overrides the element size of the combine-side
	// buffers (Tutel forces float32 A_combine on AMD GPUs, Table 4);
	// zero means Config.BytesPerElem.
	CombineBytes int
	// SaveForBackward captures the intermediate state needed by
	// PFTBackward / PaddedBackward: in numeric mode the forward
	// activations (the captured tensors stay allocated), in symbolic mode
	// the exchange geometry only, so a timing-only backward pass can
	// mirror the forward volumes.
	SaveForBackward bool
	// OverlapChunks is the number of chunks the dispatch -> experts ->
	// combine middle section runs in: the routed tokens are split into
	// OverlapChunks per-expert chunks, chunk i+1's dispatch all-to-all
	// overlaps chunk i's expert GEMMs on the communication stream, and
	// chunk i's combine all-to-all overlaps chunk i+1's GEMMs (FastMoE
	// smart scheduling / Megatron Core MoE overlap). Values <= 1 mean one
	// chunk, which is the blocking pipeline (overlap.go says what a single
	// chunk skips). Numeric output is bit-identical for any chunk count
	// (the expert FFN is row-independent and chunking never reorders the
	// per-row arithmetic). Composes with SaveForBackward: the forward
	// scatters its per-chunk intermediates into full-layout buffers, so
	// the saved state does not depend on the chunk count, and the backward
	// passes accept the same option to overlap their mirrored all-to-alls
	// (see PFTBackward).
	OverlapChunks int
	// CapacityByExpert, when non-nil, overrides the uniform
	// Config.Capacity with a per-expert capacity vector (one entry per
	// global expert, each >= 1) during PFT construction — the
	// straggler-aware rebalance computed by RebalanceCapacity. The PFT
	// and RBD transports carry the resulting uneven segments natively;
	// the padded pipeline rejects it (its even all-to-all requires one
	// uniform capacity).
	CapacityByExpert []int
	// OnDWReady, when set, is invoked exactly once per backward pass
	// (PFTBackward / PaddedBackward, any chunk count) at the point where
	// the layer's weight gradients are complete and the backward's last
	// blocking collective has retired — the hook point for issuing
	// bucketed asynchronous gradient synchronisation (internal/zero) so
	// the sync overlaps the remaining backward compute instead of
	// serialising after it. Forward-only calls never invoke it.
	OnDWReady func()
}

// maxOverlapChunks bounds the chunk count: beyond this, per-chunk launch
// and message latencies dwarf any conceivable transfer left to hide.
const maxOverlapChunks = 4096

// OptionError is the typed rejection every option validator returns: Opt
// names the offending PipelineOpts/DistConfig field, Detail explains the
// rejected combination. Callers unwrap it with errors.As to distinguish
// misconfiguration from other failures instead of string-matching (the
// old silent fallback to the flat transport is gone).
type OptionError struct {
	// Opt is the offending option's field name (e.g. "OverlapChunks",
	// "CombineBytes", "Transport").
	Opt string
	// Detail is the human-readable rejection.
	Detail string
}

func (e *OptionError) Error() string { return e.Detail }

// Check validates the option combination, returning a typed *OptionError
// for unsupported or nonsensical settings. The pipelines call it on entry
// (panicking with the error, as misconfiguration inside an SPMD body
// cannot be returned); CLIs call it directly on flag-derived options so
// the user sees the message instead of a rank panic.
func (o PipelineOpts) Check() error {
	if o.OverlapChunks < 0 {
		return &OptionError{Opt: "OverlapChunks", Detail: fmt.Sprintf("moe: OverlapChunks must be >= 0, got %d", o.OverlapChunks)}
	}
	if o.OverlapChunks > maxOverlapChunks {
		return &OptionError{Opt: "OverlapChunks", Detail: fmt.Sprintf("moe: OverlapChunks %d exceeds the supported maximum %d", o.OverlapChunks, maxOverlapChunks)}
	}
	if o.CombineBytes < 0 {
		return &OptionError{Opt: "CombineBytes", Detail: fmt.Sprintf("moe: CombineBytes must be >= 0, got %d", o.CombineBytes)}
	}
	if o.Kernels < KernelsTriton || o.Kernels > KernelsVendor {
		return &OptionError{Opt: "Kernels", Detail: fmt.Sprintf("moe: unknown kernel profile %d", o.Kernels)}
	}
	if o.DropPolicy < DropByCapacityWeight || o.DropPolicy > DropNegativeThenPosition {
		return &OptionError{Opt: "DropPolicy", Detail: fmt.Sprintf("moe: unknown drop policy %d", o.DropPolicy)}
	}
	if o.PilotPolicy < PilotRandom || o.PilotPolicy > PilotFirstExpert {
		return &OptionError{Opt: "PilotPolicy", Detail: fmt.Sprintf("moe: unknown pilot policy %d", o.PilotPolicy)}
	}
	for e, c := range o.CapacityByExpert {
		if c < 1 {
			return &OptionError{Opt: "CapacityByExpert",
				Detail: fmt.Sprintf("moe: CapacityByExpert[%d] = %d; every per-expert capacity must be >= 1", e, c)}
		}
	}
	return nil
}

// CheckPaddedOpts is Check plus what only the padded pipeline rejects: a
// per-expert capacity vector, which its even all-to-all cannot carry.
func CheckPaddedOpts(o PipelineOpts) error {
	if err := o.Check(); err != nil {
		return err
	}
	if o.CapacityByExpert != nil {
		return &OptionError{Opt: "CapacityByExpert",
			Detail: "moe: the padded pipeline's even all-to-all requires uniform expert capacity; per-expert rebalance needs the pft or rbd transport"}
	}
	return nil
}

func (o PipelineOpts) combineBytes(cfg Config) int {
	if o.CombineBytes > 0 {
		return o.CombineBytes
	}
	return cfg.BytesPerElem
}

// Chunks returns the effective chunk count (1 = blocking).
func (o PipelineOpts) Chunks() int {
	if o.OverlapChunks > 1 {
		return o.OverlapChunks
	}
	return 1
}

// ExpertParams holds the weights of this rank's local experts: W1[e] is
// [H, HFFN] and W2[e] is [HFFN, H]. Nil in symbolic mode.
type ExpertParams struct {
	W1, W2 []*tensor.Tensor
}

// NewExpertParams initialises numLocal experts' weights deterministically.
func NewExpertParams(rng *tensor.RNG, numLocal, h, f int) *ExpertParams {
	p := &ExpertParams{W1: make([]*tensor.Tensor, numLocal), W2: make([]*tensor.Tensor, numLocal)}
	std1 := float32(0.02)
	for e := 0; e < numLocal; e++ {
		p.W1[e] = tensor.Randn(rng, std1, h, f)
		p.W2[e] = tensor.Randn(rng, std1, f, h)
	}
	return p
}

// LayerResult is the outcome of one distributed MoE layer forward pass.
type LayerResult struct {
	// Output is the [S, H] layer output (nil in symbolic mode).
	Output *tensor.Tensor
	// PFT is the routing buffer the layer dispatched: the PFT of the PFT
	// and RBD pipelines, the capacity-padded layout of the padded one
	// (every segment C rows, a hole's token -1). A symbolic flat pipeline's
	// carries counts only (TokensPerExpert, Dropped; nil rows); RBD picks
	// its pilots per row, so its PFT always has TokenIDs and
	// CombineWeights, and ExpertIDs when numeric.
	PFT *PFT
	// RoutedTokens is the number of retained (token, expert) assignments
	// sent (holes not counted).
	RoutedTokens int
	// RecvTokens is the number of rows this rank's experts processed.
	RecvTokens int
	// Dropped is the number of assignments removed by the drop policy.
	Dropped int
	// State carries the saved intermediates for the backward (only when
	// opts.SaveForBackward).
	State *PFTFwdState
	// PaddedState is State for callers written against the padded pair
	// PaddedForward / PaddedBackward (padded pipeline only).
	PaddedState *PFTFwdState
}

// PFTFwdState is one rank's forward pass of the layer, kept for the
// backward, whatever the transport: the exchange that ran it, which
// carries what the backward needs to send every gradient back the way its
// row came, and the expert-FFN intermediates in the full expert-major
// layout (nil in symbolic mode, where the geometry is all the timing-only
// backward needs).
type PFTFwdState struct {
	// Ex is the exchange the forward ran, which the backward reverses.
	Ex Exchange
	l  layer
}

// layer is the body's side of one layer call on one rank: what the
// exchange's calls back into Experts need, and what the forward saves.
type layer struct {
	r      *simrt.Rank
	cfg    Config
	params *ExpertParams
	opts   PipelineOpts // the current pass's
	kp     kernelProfile
	// The full layout's rows per local expert and in total, and (numeric)
	// the forward's FFN intermediates in it: the input [bExp, H], GeLU′ at
	// the pre-activation [bExp, F] (ffn's keep) and the activation
	// [bExp, F].
	full                        []int
	bExp                        int
	expertIn, geluPrime, hidAct *tensor.Tensor
	numeric                     bool // captured by a numeric forward
	// The backward's gradient buffers and weight gradients.
	grads    ffnGrads
	dW1, dW2 []*tensor.Tensor
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// RoutedPFT builds the PFT a transport dispatches: the uniform
// Config.Capacity unless opts.CapacityByExpert rebalances it per expert.
// Shared by the PFT pipeline and the RBD dispatcher, so both transports
// see identical routing decisions under mitigation. Its ExpertIDs are
// built under opts.Numeric only.
func RoutedPFT(routing Routing, cfg Config, s int, opts PipelineOpts) *PFT {
	return routedPFT(routing, cfg, s, opts, true, false)
}

// routedPFT is RoutedPFT, with the rows only when asked for, and the
// capacity-padded layout when padded. ExpertIDs is built for a numeric
// layer only: a symbolic one with rows is RBD's, which reads TokenIDs.
func routedPFT(routing Routing, cfg Config, s int, opts PipelineOpts, rows, padded bool) *PFT {
	caps, limit := opts.CapacityByExpert, cfg.Capacity(s)
	if caps != nil {
		limit, padded = 0, false
	}
	pft := buildPFT(routing, cfg.NumExperts, caps, limit, opts.DropPolicy, rows, padded)
	if opts.Numeric {
		pft.withExpertIDs()
	}
	return pft
}

// epCheck validates the expert-parallel layout and returns experts/rank.
func epCheck(cfg Config, g *simrt.Group) int {
	if cfg.NumExperts%g.Size() != 0 {
		panic(fmt.Sprintf("moe: %d experts not divisible by EP size %d", cfg.NumExperts, g.Size()))
	}
	return cfg.NumExperts / g.Size()
}

// kernelProfile is what separates the capacity-padded baselines from
// X-MoE inside the one pipeline body; the rows, the chunked exchanges and
// the expert arithmetic are shared, and a hole row of the padded layout
// is priced like a real one and carries zeros.
type kernelProfile struct {
	// padded is the capacity-padded layout. Both ends know every segment
	// is C rows, so no per-expert counts go with chunk 0; the experts run
	// batched padded GEMMs with a vendor-class activation; the combine
	// wire stays at BytesPerElem (Tutel's fp32 quirk is the materialised
	// A_combine buffer, Table 4, not the exchange); and the backward is
	// never X-MoE's fused single-chunk dX+dW kernel.
	padded bool
	// class prices the gate passes, the reorders, the strided packs and
	// the bandwidth-bound buffer passes.
	class perfmodel.KernelClass
	// einsum makes every dispatch/combine buffer pass (and its backward)
	// a dense [S, E, C] mask einsum, as in the DeepSpeed-style frameworks.
	einsum bool
}

// profileOf picks the profile: X-MoE's Triton suite for the padding-free
// layout; for the padded one Tutel's sparse vendor kernels under
// KernelsVendor, else the fallback frameworks' dense mask pipeline.
func profileOf(padded bool, k KernelProfile) kernelProfile {
	switch {
	case !padded:
		return kernelProfile{class: perfmodel.ClassTriton}
	case k == KernelsVendor:
		return kernelProfile{padded: true, class: perfmodel.ClassVendor}
	}
	return kernelProfile{padded: true, class: perfmodel.ClassFallback, einsum: true}
}

// memBuf is a buffer charged to the memory tracker under tag.
type memBuf struct {
	tag   string
	bytes int64
}

// gate returns the launches and bytes of the gate's memory-bound passes
// after the router GEMM, and the buffers gating leaves live: X-MoE's
// sort-based PFT construction and its ERI-arrays; the fallback
// frameworks' dense [S, E, C] dispatch mask and its one-hot/cumsum
// intermediates; Tutel's cursor-based dispatcher, which keeps index
// arrays but no dense mask.
func (kp kernelProfile) gate(cfg Config, s, capTokens int, pft *PFT) (launches int, bytes int64, live [2]memBuf) {
	e, k := cfg.NumExperts, cfg.TopK
	elem := int64(cfg.BytesPerElem)
	switch {
	case !kp.padded:
		return 6, int64(s*e)*elem + int64(s*k)*24, [2]memBuf{{"eri", pft.ERIBytes()}}
	case kp.einsum:
		mask, interm := int64(s)*int64(e)*int64(capTokens)*(elem+4), int64(s*k*e)*4
		return 12, mask + interm, [2]memBuf{{"mask", mask}, {"mask_interm", interm}}
	}
	interm := int64(s*k) * 16
	return 6, interm, [2]memBuf{{"mask", 0}, {"mask_interm", interm}}
}

// bufferPass prices one dispatch/combine buffer pass (or its backward)
// over rows layout rows of elemBytes-wide elements: a mask einsum over
// [s, E, rows/E] under einsum, else a read and a write of every row.
func (kp kernelProfile) bufferPass(comp *perfmodel.Model, cfg Config, s, rows int, elemBytes int64) float64 {
	if kp.einsum {
		return comp.MaskEinsum(s, cfg.NumExperts, rows/cfg.NumExperts, cfg.HModel)
	}
	return comp.MemBound(kp.class, 2*int64(rows)*int64(cfg.HModel)*elemBytes)
}

// gemms prices the expert FFN's GEMM pair over rowsPerLE rows of each
// local expert: sequential GEMMs over uneven segments, or batched GEMMs
// over the padded layout's equal ones.
func (kp kernelProfile) gemms(comp *perfmodel.Model, cfg Config, rowsPerLE []int) float64 {
	h, f := cfg.HModel, cfg.HFFN
	if kp.padded {
		return comp.BatchedPaddedGEMM(len(rowsPerLE), rowsPerLE[0], h, f) +
			comp.BatchedPaddedGEMM(len(rowsPerLE), rowsPerLE[0], f, h)
	}
	return comp.SequentialGEMM(rowsPerLE, h, f) + comp.SequentialGEMM(rowsPerLE, f, h)
}

// act prices the expert activation pass (or its backward) over rows rows.
func (kp kernelProfile) act(comp *perfmodel.Model, cfg Config, rows int) float64 {
	class := perfmodel.ClassTriton
	if kp.padded {
		class = perfmodel.ClassVendor
	}
	return comp.MemBound(class, 2*int64(rows)*int64(cfg.HFFN)*int64(cfg.BytesPerElem))
}

// PFTForward executes X-MoE's padding-free MoE layer (paper Listing 1) on
// rank r within EP group g: gating, PFT construction, gather-kernel
// dispatch, uneven all-to-all, expert-major reorder, sequential GEMM
// experts, reverse all-to-all, and the weight-scaling scatter combine. s
// is the local token count; x is the [s, H] input (nil in symbolic mode);
// routing is the gate decision for the local tokens. The exchange and
// expert stages run in opts.Chunks() chunks (see overlap.go); one chunk
// is the blocking pipeline.
func PFTForward(r *simrt.Rank, g *simrt.Group, cfg Config, s int, x *tensor.Tensor, routing Routing, params *ExpertParams, opts PipelineOpts) LayerResult {
	return Forward(r, &flat{g: g, cfg: cfg}, cfg, s, x, routing, params, opts)
}

// PaddedForward executes the conventional zero-padded MoE layer used by
// the DeepSpeed-MoE / DeepSpeed-TED / Tutel baselines (paper §3.1,
// Appendix B.1): PFTForward over the capacity-padded layout, whose
// fixed-capacity [E, C, H] buffers make the all-to-all even and carry the
// padding. Slots fill first-come-first-served by position under either
// DropPolicy (DropNegativeThenPosition also drops negative scores
// first), and the profile of opts.Kernels prices the dispatch mask, the
// mask-einsum or vendor buffer passes and the batched padded expert GEMMs.
func PaddedForward(r *simrt.Rank, g *simrt.Group, cfg Config, s int, x *tensor.Tensor, routing Routing, params *ExpertParams, opts PipelineOpts) LayerResult {
	if err := CheckPaddedOpts(opts); err != nil {
		panic(err)
	}
	res := Forward(r, &flat{g: g, cfg: cfg, padded: true}, cfg, s, x, routing, params, opts)
	res.PaddedState = res.State
	return res
}

// Forward is the one MoE layer body every transport runs, with ex moving
// the rows: gating and layout construction, the gather-kernel buffer
// dispatch, the exchange's dispatch, the expert FFN over each batch the
// exchange lands, and the exchange's combine into the [s, H] output. It
// panics with PipelineOpts.Check's *OptionError on invalid options; a
// transport's entry point rejects what only it cannot honour first.
func Forward(r *simrt.Rank, ex Exchange, cfg Config, s int, x *tensor.Tensor, routing Routing, params *ExpertParams, opts PipelineOpts) LayerResult {
	if err := opts.Check(); err != nil {
		panic(err)
	}
	padded, rows := ex.Layout()
	h, f := cfg.HModel, cfg.HFFN
	kp := profileOf(padded, opts.Kernels)
	elem := int64(cfg.BytesPerElem)
	mem := &r.Dev().Mem
	comp := r.C.Comp

	// --- Gate + layout construction -------------------------------------
	// Router GEMM [s,H]x[H,E], then the profile's memory-bound passes.
	pft := routedPFT(routing, cfg, s, opts, opts.Numeric || rows, padded)
	b := pft.B()
	launches, gateBytes, live := kp.gate(cfg, s, cfg.Capacity(s), pft)
	r.Compute(StageGate, comp.GEMM(s, h, cfg.NumExperts)+comp.MemBoundN(kp.class, launches, gateBytes))
	for _, buf := range live {
		if buf.tag != "" {
			mem.Alloc(buf.tag, buf.bytes)
		}
	}

	// --- Buffer dispatch (gather kernel; a hole gathers as a zero row) ---
	r.Compute(StageDispatch, kp.bufferPass(comp, cfg, s, b, elem))
	var dispIn *tensor.Tensor
	if opts.Numeric {
		dispIn = r.Pool().Get(b, h)
		kernels.GatherInto(dispIn, x, pft.TokenIDs)
	}
	mem.Alloc("dispatch_in", int64(b)*int64(h)*elem)

	// --- Exchange, expert FFN per landed batch (layer.Forward) -----------
	st := &PFTFwdState{Ex: ex, l: layer{r: r, cfg: cfg, params: params, opts: opts, kp: kp, numeric: opts.Numeric}}
	l := &st.l
	output := ex.Forward(r, s, pft, dispIn, opts, l)
	// Lifetime: the flat one-chunk dispatch sends views of dispIn, which
	// every peer lands before it posts the combine exchange this rank has
	// drained by now; RBD only copies from it. No peer reads it any more.
	r.Pool().Put(dispIn)

	mem.Free("dispatch_in", int64(b)*int64(h)*elem)
	mem.Free("A0_interm", int64(l.bExp)*int64(f)*elem)
	mem.Free("A1_interm", int64(l.bExp)*int64(f)*elem)
	for _, buf := range live {
		if buf.tag != "" {
			mem.Free(buf.tag, buf.bytes)
		}
	}

	res := LayerResult{
		Output:       output,
		PFT:          pft,
		RoutedTokens: len(routing.Experts) - pft.Dropped,
		RecvTokens:   l.bExp,
		Dropped:      pft.Dropped,
	}
	if opts.SaveForBackward {
		res.State = st
	}
	return res
}

// Forward runs the expert stage of one landed batch: the first batch that
// knows the full layout charges its FFN buffers, every batch its FFN, and
// with SaveForBackward the batch's intermediates are scattered into the
// full layout, unless the batch is the whole layout already.
func (l *layer) Forward(bt Batch) *tensor.Tensor {
	// Rank-local intermediates come from the per-rank arena so the steady
	// state allocates nothing; buffers whose data crosses an exchange stay
	// allocate-fresh because peers may still read them after the
	// rendezvous.
	cfg, opts, pool := l.cfg, l.opts, l.r.Pool()
	h, f, elem := cfg.HModel, cfg.HFFN, int64(cfg.BytesPerElem)
	if bt.Full != nil {
		l.full, l.bExp = bt.Full, sum(bt.Full)
		l.r.Dev().Mem.Alloc("A0_interm", int64(l.bExp)*int64(f)*elem)
		l.r.Dev().Mem.Alloc("A1_interm", int64(l.bExp)*int64(f)*elem)
	}
	l.r.Compute(StageExperts, l.kp.gemms(l.r.C.Comp, cfg, bt.Rows)+l.kp.act(l.r.C.Comp, cfg, sum(bt.Rows)))
	if !opts.Numeric || bt.In == nil {
		return nil
	}
	whole, rows := bt.N == nil, bt.Rows
	if whole {
		rows = l.full
	}
	pre, act, out := l.params.ffn(pool, bt.In, rows, opts.SaveForBackward)
	switch {
	case !opts.SaveForBackward:
		pool.PutAll(bt.In, pre)
	case whole:
		l.expertIn, l.geluPrime, l.hidAct = bt.In, pre, act
	default:
		if l.expertIn == nil {
			l.expertIn, l.geluPrime, l.hidAct = pool.Get(l.bExp, h), pool.Get(l.bExp, f), pool.Get(l.bExp, f)
		}
		scatterBlocks(l.expertIn, bt.In, bt.N, bt.At, bt.SaveAt)
		scatterBlocks(l.geluPrime, pre, bt.N, bt.At, bt.SaveAt)
		scatterBlocks(l.hidAct, act, bt.N, bt.At, bt.SaveAt)
		pool.PutAll(bt.In, pre, act)
	}
	return out
}
