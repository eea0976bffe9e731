package moe

import (
	"fmt"

	"xmoe/internal/kernels"
	"xmoe/internal/perfmodel"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// Trace stage names shared by both pipelines; the Fig. 11 layer-breakdown
// experiment aggregates these.
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

// PipelineOpts configures one MoE layer execution.
type PipelineOpts struct {
	// Numeric executes real float math; otherwise the pipeline is
	// metadata-only (symbolic) and charges time/memory without payloads.
	Numeric bool
	// DropPolicy selects the token-dropping semantics.
	DropPolicy DropPolicy
	// Kernels selects the gating/dispatch/combine kernel quality.
	Kernels KernelProfile
	// CombineBytes overrides the element size of the combine-side
	// buffers (Tutel forces float32 A_combine on AMD GPUs, Table 4);
	// zero means Config.BytesPerElem.
	CombineBytes int
	// RetainActivations keeps all activation buffers allocated after the
	// forward pass (training semantics) so peak-memory measurements see
	// them; otherwise transient buffers are freed as the pipeline
	// proceeds.
	RetainActivations bool
	// SaveForBackward captures the intermediate state needed by
	// PFTBackward / PaddedBackward: in numeric mode the forward
	// activations (with RetainActivations semantics for the captured
	// tensors), in symbolic mode the exchange geometry only, so a
	// timing-only backward pass can mirror the forward volumes.
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

// mustCheck panics with the descriptive Check error; pipeline entry
// points run inside SPMD rank bodies and cannot return errors.
func (o PipelineOpts) mustCheck() {
	if err := o.Check(); err != nil {
		panic(err.Error())
	}
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
	// PFT is the routing buffer used (PFT and RBD pipelines). A symbolic
	// PFT pipeline's carries counts only (TokensPerExpert, Dropped; nil
	// rows); RBD picks its pilots per row, so its PFT always has them.
	PFT *PFT
	// RoutedTokens is the number of retained (token, expert) rows sent.
	RoutedTokens int
	// RecvTokens is the number of rows this rank's experts processed.
	RecvTokens int
	// Dropped is the number of assignments removed by the drop policy.
	Dropped int
	// State carries the saved intermediates for PFTBackward (PFT
	// pipeline, only when opts.SaveForBackward).
	State *PFTFwdState
	// PaddedState carries the saved intermediates for PaddedBackward
	// (padded pipeline, only when opts.SaveForBackward). A symbolic
	// pipeline's PaddedAssignment carries counts only (nil slot tables).
	PaddedState *PaddedFwdState
}

// PFTFwdState is the per-rank forward state the distributed backward pass
// consumes: the PFT, the exchange segmentation, and the expert-FFN
// intermediates. In symbolic mode the tensors are nil and only the
// geometry is populated (the PFT carries counts only), which is all the
// timing-only backward needs.
type PFTFwdState struct {
	S          int
	PFT        *PFT
	RecvCounts [][]int // [src][localExpert]
	BlockOff   [][]int // [localExpert][src] expert-major row offsets
	RowsPerLE  []int
	ExpertIn   *tensor.Tensor // [BExp, H] expert-major
	HidPre     *tensor.Tensor // [BExp, F] pre-activation
	HidAct     *tensor.Tensor // [BExp, F] post-GeLU
	CombineIn  *tensor.Tensor // [B, H] returned expert outputs, PFT order
}

// bExp returns the number of expert-input rows this rank processed.
func (st *PFTFwdState) bExp() int {
	n := 0
	for _, c := range st.RowsPerLE {
		n += c
	}
	return n
}

// PaddedFwdState is the padded pipeline's saved forward state for
// PaddedBackward: the dispatch plan plus the expert-FFN intermediates in
// the expert-major padded layout ((le*P + src)*C + slot row order). In
// symbolic mode the tensors are nil; the even geometry is fully
// determined by the config and group size.
type PaddedFwdState struct {
	S  int
	PA *PaddedAssignment
	// ExpertIn, HidPre, HidAct are the [EPR*P*C, H/F] expert-major
	// buffers of the padded expert computation.
	ExpertIn *tensor.Tensor
	HidPre   *tensor.Tensor
	HidAct   *tensor.Tensor
	// CombineFull is the [E*C, H] returned padded buffer in
	// global-expert slot order (the combine einsum's input).
	CombineFull *tensor.Tensor
}

// RoutedPFT builds the PFT a transport dispatches: the uniform
// Config.Capacity unless opts.CapacityByExpert rebalances it per expert.
// Shared by the PFT pipeline and the RBD dispatcher, so both transports
// see identical routing decisions under mitigation.
func RoutedPFT(routing Routing, cfg Config, s int, opts PipelineOpts) *PFT {
	return routedPFT(routing, cfg, s, opts, true)
}

// routedPFT is RoutedPFT, with the rows only when asked for.
func routedPFT(routing Routing, cfg Config, s int, opts PipelineOpts, rows bool) *PFT {
	if opts.CapacityByExpert != nil {
		return buildPFT(routing, cfg.NumExperts, opts.CapacityByExpert, 0, opts.DropPolicy, rows)
	}
	return buildPFT(routing, cfg.NumExperts, nil, cfg.Capacity(s), opts.DropPolicy, rows)
}

// epCheck validates the expert-parallel layout and returns experts/rank.
func epCheck(cfg Config, g *simrt.Group) int {
	if cfg.NumExperts%g.Size() != 0 {
		panic(fmt.Sprintf("moe: %d experts not divisible by EP size %d", cfg.NumExperts, g.Size()))
	}
	return cfg.NumExperts / g.Size()
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
	opts.mustCheck()
	epr := epCheck(cfg, g)
	p := g.Size()
	h, f := cfg.HModel, cfg.HFFN
	elem := int64(cfg.BytesPerElem)
	combElem := int64(opts.combineBytes(cfg))
	chunks := opts.Chunks()
	mem := &r.Dev().Mem
	comp := r.C.Comp
	// Rank-local intermediates come from the per-rank arena so the steady
	// state allocates nothing; buffers whose data crosses the all-to-alls
	// (dispIn, the send-back staging) stay allocate-fresh because peers
	// may still read them after the rendezvous.
	pool := r.Pool()

	// --- Gate + PFT construction ---------------------------------------
	// Router GEMM [s,H]x[H,E], softmax/top-k, then the sort-based PFT
	// construction (Triton-class passes over the flattened assignments).
	gateTime := comp.GEMM(s, h, cfg.NumExperts) +
		comp.MemBoundN(perfmodel.ClassTriton, 6,
			int64(s*cfg.NumExperts)*elem+int64(s*cfg.TopK)*24)
	r.Compute(StageGate, gateTime)
	pft := routedPFT(routing, cfg, s, opts, opts.Numeric)
	b := pft.B()
	mem.Alloc("eri", pft.ERIBytes())

	// --- Buffer dispatch (gather kernel) --------------------------------
	r.Compute(StageDispatch, comp.MemBound(perfmodel.ClassTriton, 2*int64(b)*int64(h)*elem))
	var dispIn *tensor.Tensor
	if opts.Numeric {
		dispIn = kernels.Gather(x, pft.TokenIDs)
	}
	mem.Alloc("dispatch_in", int64(b)*int64(h)*elem)

	// --- Uneven all-to-all (dispatch), every chunk issued up front -------
	// Chunk c of global expert e covers rows ChunkRange(cnt_e, chunks, c)
	// of e's contiguous PFT segment. The full per-expert counts ride with
	// chunk 0, later chunks are derived by both ends from the same split.
	// Part slices and exchanges of both directions and all chunks view two
	// backing arrays, so the allocation count is independent of C.
	segStart := pft.ExpertSegments()
	countsFlat := make([]int, p*epr)
	copy(countsFlat, pft.TokensPerExpert)
	parts := make([]simrt.Part, 2*chunks*p)
	exchanges := make([]simrt.Exchange, 2*chunks)
	dispatchX, combineX := exchanges[:chunks], exchanges[chunks:]
	for c := 0; c < chunks; c++ {
		send := parts[c*p : (c+1)*p]
		chunkRows := packSegments(send, dispIn, pft.TokensPerExpert, segStart, epr, h, elem, chunks, c)
		if c == 0 {
			for dst := range send {
				send[dst].Meta = countsFlat[dst*epr : (dst+1)*epr]
				send[dst].Bytes += int64(epr) * 8
			}
		}
		if chunks > 1 {
			// Strided per-expert chunk rows are packed into send buffers, a
			// memory-bound pass; one chunk is sent as contiguous views.
			r.Compute(StageOthers, comp.MemBound(perfmodel.ClassTriton, 2*int64(chunkRows)*int64(h)*elem))
		}
		dispatchX[c] = r.AlltoAllVChunk(g, StageDispatchA2A, send, chunks)
	}

	// --- Per-chunk expert stage, combine issued as soon as a chunk ends --
	// One int backing holds the full-layout geometry the backward needs
	// (blockOff[le][src] expert-major block offsets, fullRowsPerLE) and
	// the per-chunk scratch: n/at as overlap.go describes, saveAt[k] the
	// chunk block's row in the full layout.
	nb := epr * p
	ints := make([]int, 4*nb+2*epr)
	fullAt, n, at, saveAt := ints[:nb], ints[nb:2*nb], ints[2*nb:3*nb], ints[3*nb:4*nb]
	fullRowsPerLE, rowsPerLE := ints[4*nb:4*nb+epr:4*nb+epr], ints[4*nb+epr:]
	blockOff := make([][]int, epr)
	var recvCounts [][]int // [src][localExpert] full totals, from chunk 0
	bExp := 0
	var expertIn, hidPre, hidAct *tensor.Tensor
	for c := 0; c < chunks; c++ {
		recv := dispatchX[c].Wait()
		if c == 0 {
			// Received layout: src-major, each src's rows ordered by local
			// expert.
			recvCounts = make([][]int, p)
			for src, part := range recv {
				recvCounts[src] = part.Meta.([]int)
			}
			for le := 0; le < epr; le++ {
				blockOff[le] = fullAt[le*p : (le+1)*p : (le+1)*p]
				for src := 0; src < p; src++ {
					blockOff[le][src] = bExp
					bExp += recvCounts[src][le]
					fullRowsPerLE[le] += recvCounts[src][le]
				}
			}
			mem.Alloc("A_dispatch", int64(bExp)*int64(h)*elem)
			mem.Alloc("A0_interm", int64(bExp)*int64(f)*elem)
			mem.Alloc("A1_interm", int64(bExp)*int64(f)*elem)
			if opts.SaveForBackward && opts.Numeric {
				expertIn = pool.Get(bExp, h)
				hidPre = pool.Get(bExp, f)
				hidAct = pool.Get(bExp, f)
			}
		}
		bc := 0
		for le := 0; le < epr; le++ {
			rowsPerLE[le] = 0
			for src := 0; src < p; src++ {
				lo, hi := simrt.ChunkRange(recvCounts[src][le], chunks, c)
				k := le*p + src
				n[k], at[k], saveAt[k] = hi-lo, bc, fullAt[k]+lo
				bc += hi - lo
				rowsPerLE[le] += hi - lo
			}
		}

		// Expert-major reorder of this chunk (sequential GEMM input prep,
		// the small expert-stage overhead the paper notes in §5.4.1).
		r.Compute(StageOthers, comp.MemBound(perfmodel.ClassTriton, 2*int64(bc)*int64(h)*elem))
		// Sequential GEMM experts over the chunk's uneven segments.
		expertTime := comp.SequentialGEMM(rowsPerLE, h, f) +
			comp.SequentialGEMM(rowsPerLE, f, h) +
			comp.MemBound(perfmodel.ClassTriton, 2*int64(bc)*int64(f)*elem) // activation
		r.Compute(StageExperts, expertTime)
		var chunkOut *tensor.Tensor
		if opts.Numeric {
			chunkOut = expertChunk(pool, params, recv, n, at, saveAt, rowsPerLE, bc, h, f, expertIn, hidPre, hidAct)
		}

		// Reverse reorder to src-major and issue this chunk's combine.
		r.Compute(StageOthers, comp.MemBound(perfmodel.ClassTriton, 2*int64(bc)*int64(h)*elem))
		sendBack := parts[(chunks+c)*p : (chunks+c+1)*p]
		packBlocks(sendBack, chunkOut, n, at, h, combElem)
		combineX[c] = r.AlltoAllVChunk(g, StageCombineA2A, sendBack, chunks)
		pool.Put(chunkOut) // fully staged into the send-back buffers
	}

	// --- Drain combine chunks into the PFT-ordered combine buffer --------
	mem.Alloc("A_combine", int64(b)*int64(h)*combElem)
	var combineIn *tensor.Tensor
	if opts.Numeric {
		combineIn = pool.Get(b, h)
	}
	for c := 0; c < chunks; c++ {
		back := combineX[c].Wait()
		if opts.Numeric {
			unpackSegments(combineIn, back, pft.TokensPerExpert, segStart, epr, h, chunks, c)
		}
	}

	// --- Scatter combine --------------------------------------------------
	r.Compute(StageCombine, comp.MemBound(perfmodel.ClassTriton, 2*int64(b)*int64(h)*combElem))
	var out *tensor.Tensor
	if opts.Numeric {
		out = kernels.ScatterCombine(combineIn, pft.TokenIDs, pft.CombineWeights, s)
		if !opts.SaveForBackward {
			pool.Put(combineIn)
		}
	}
	mem.Alloc("output", int64(s)*int64(h)*elem)

	if !opts.RetainActivations {
		mem.Free("dispatch_in", int64(b)*int64(h)*elem)
		mem.Free("A_dispatch", int64(bExp)*int64(h)*elem)
		mem.Free("A0_interm", int64(bExp)*int64(f)*elem)
		mem.Free("A1_interm", int64(bExp)*int64(f)*elem)
		mem.Free("A_combine", int64(b)*int64(h)*combElem)
		mem.Free("eri", pft.ERIBytes())
	}

	res := LayerResult{
		Output:       out,
		PFT:          pft,
		RoutedTokens: b,
		RecvTokens:   bExp,
		Dropped:      pft.Dropped,
	}
	if opts.SaveForBackward {
		res.State = &PFTFwdState{
			S:          s,
			PFT:        pft,
			RecvCounts: recvCounts,
			BlockOff:   blockOff,
			RowsPerLE:  fullRowsPerLE,
			ExpertIn:   expertIn,
			HidPre:     hidPre,
			HidAct:     hidAct,
			CombineIn:  combineIn,
		}
	}
	return res
}

// PaddedForward executes the conventional zero-padded MoE layer used by
// the DeepSpeed-MoE / DeepSpeed-TED / Tutel baselines (paper §3.1,
// Appendix B.1): dispatch-mask construction, einsum dispatch into
// fixed-capacity [E, C, H] buffers, an even all-to-all that carries the
// padding, batched padded expert GEMMs, the reverse all-to-all, and the
// mask-einsum combine. The exchanges and the expert GEMMs run in
// opts.Chunks() chunks of capacity slots (see overlap.go).
func PaddedForward(r *simrt.Rank, g *simrt.Group, cfg Config, s int, x *tensor.Tensor, routing Routing, params *ExpertParams, opts PipelineOpts) LayerResult {
	if err := CheckPaddedOpts(opts); err != nil {
		panic(err.Error())
	}
	epr := epCheck(cfg, g)
	p := g.Size()
	h, f, e := cfg.HModel, cfg.HFFN, cfg.NumExperts
	capTokens := cfg.Capacity(s)
	elem := int64(cfg.BytesPerElem)
	combElem := int64(opts.combineBytes(cfg))
	chunks := opts.Chunks()
	mem := &r.Dev().Mem
	comp := r.C.Comp
	pool := r.Pool()

	// Two baseline flavours share the padded buffers but differ in how
	// they are produced: DeepSpeed-style frameworks build a dense
	// [S, E, C] mask with a chain of fallback ops and dispatch/combine
	// through mask einsums ("SEC,SH->ECH"); Tutel's tuned (vendor-class)
	// kernels use a sparse cursor-based dispatcher, skipping the dense
	// mask but still writing full capacity-padded buffers.
	vendor := opts.Kernels == KernelsVendor
	kernelClass := perfmodel.ClassFallback
	launches := 12
	maskBytes := int64(s) * int64(e) * int64(capTokens) * (elem + 4)
	intermBytes := int64(s*cfg.TopK*e) * 4
	if vendor {
		kernelClass = perfmodel.ClassVendor
		launches = 6
		maskBytes = 0
		intermBytes = int64(s*cfg.TopK) * 16
	}

	// --- Gate + dispatch-plan construction --------------------------------
	gateTime := comp.GEMM(s, h, e) +
		comp.MemBoundN(kernelClass, launches, maskBytes+intermBytes)
	r.Compute(StageGate, gateTime)
	pa := buildPaddedAssignment(routing, e, capTokens, opts.DropPolicy, opts.Numeric)
	mem.Alloc("mask", maskBytes)
	mem.Alloc("mask_interm", intermBytes)

	// --- Buffer dispatch ----------------------------------------------------
	bufBytes := int64(e) * int64(capTokens) * int64(h) * elem
	if vendor {
		r.Compute(StageDispatch, comp.MemBound(perfmodel.ClassVendor, 2*bufBytes))
	} else {
		r.Compute(StageDispatch, comp.MaskEinsum(s, e, capTokens, h))
	}
	var dispBuf *tensor.Tensor
	if opts.Numeric {
		dispBuf = kernels.PaddedDispatch(x, pa.SlotToken, capTokens)
	}
	mem.Alloc("disp_buffer", bufBytes)

	// --- Even all-to-all (dispatch), every chunk issued up front ----------
	// Every pair exchanges the padded slice for the destination's experts,
	// EPR * C * H regardless of real occupancy. Chunk c covers capacity
	// slots ChunkRange(capTokens, chunks, c) of every expert buffer; both
	// ends derive the same slot split, so no metadata is needed at all.
	pairBytes := int64(epr) * int64(capTokens) * int64(h) * elem
	rowsPerExpert := p * capTokens
	parts := make([]simrt.Part, 2*chunks*p)
	exchanges := make([]simrt.Exchange, 2*chunks)
	dispatchX, combineX := exchanges[:chunks], exchanges[chunks:]
	for c := 0; c < chunks; c++ {
		slo, shi := simrt.ChunkRange(capTokens, chunks, c)
		send := parts[c*p : (c+1)*p]
		packSlots(send, dispBuf, epr, capTokens, h, elem, chunks, c)
		if chunks > 1 {
			// The strided slot-chunk pack; the full slot range of one
			// chunk is a contiguous zero-copy send.
			r.Compute(StageOthers, comp.MemBound(kernelClass, 2*int64(p*epr*(shi-slo))*int64(h)*elem))
		}
		dispatchX[c] = r.AlltoAllVChunk(g, StageDispatchA2A, send, chunks)
	}
	mem.Alloc("A_dispatch", int64(p)*pairBytes)
	mem.Alloc("A0_interm", int64(epr*rowsPerExpert)*int64(f)*elem)
	mem.Alloc("A1_interm", int64(epr*rowsPerExpert)*int64(f)*elem)

	// Full-layout saved state (SaveForBackward): expert-major padded rows,
	// (le*P + src)*C + slot.
	var expertIn, hidPre, hidAct *tensor.Tensor
	if opts.SaveForBackward && opts.Numeric {
		expertIn = pool.Get(epr*rowsPerExpert, h)
		hidPre = pool.Get(epr*rowsPerExpert, f)
		hidAct = pool.Get(epr*rowsPerExpert, f)
	}

	// --- Per-chunk padded expert stage ------------------------------------
	nb := epr * p
	ints := make([]int, 3*nb+epr)
	n, at, saveAt, rows := ints[:nb], ints[nb:2*nb], ints[2*nb:3*nb], ints[3*nb:]
	for c := 0; c < chunks; c++ {
		recv := dispatchX[c].Wait()
		slo, shi := simrt.ChunkRange(capTokens, chunks, c)
		cl := shi - slo
		chunkRows := p * cl
		for k := range n {
			n[k], at[k], saveAt[k] = cl, k*cl, k*capTokens+slo
		}
		for le := range rows {
			rows[le] = chunkRows
		}

		// Reshape [P, EPR, cl, H] -> [EPR, P*cl, H] (a permute the
		// frameworks pay as a fallback op), then batched GEMMs over all
		// padded rows of the chunk.
		r.Compute(StageOthers, comp.MemBound(kernelClass, 2*int64(p*epr*cl)*int64(h)*elem))
		var chunkOut *tensor.Tensor
		if opts.Numeric {
			chunkOut = expertChunk(pool, params, recv, n, at, saveAt, rows, epr*chunkRows, h, f, expertIn, hidPre, hidAct)
		}
		expertTime := comp.BatchedPaddedGEMM(epr, chunkRows, h, f) +
			comp.BatchedPaddedGEMM(epr, chunkRows, f, h) +
			comp.MemBound(perfmodel.ClassVendor, 2*int64(epr*chunkRows)*int64(f)*elem)
		r.Compute(StageExperts, expertTime)

		// Reverse reshape and issue this chunk's combine. The wire stays
		// half precision; Tutel's fp32 quirk applies to the materialised
		// A_combine buffer (Table 4), not the exchange.
		r.Compute(StageOthers, comp.MemBound(kernelClass, 2*int64(p*epr*cl)*int64(h)*elem))
		sendBack := parts[(chunks+c)*p : (chunks+c+1)*p]
		packBlocks(sendBack, chunkOut, n, at, h, elem)
		combineX[c] = r.AlltoAllVChunk(g, StageCombineA2A, sendBack, chunks)
		pool.Put(chunkOut) // fully staged into the send-back buffers
	}

	// --- Drain combine chunks into the padded combine buffer -------------
	mem.Alloc("A_combine", int64(e)*int64(capTokens)*int64(h)*combElem)
	var full *tensor.Tensor
	if opts.Numeric {
		full = pool.Get(e*capTokens, h)
	}
	for c := 0; c < chunks; c++ {
		back := combineX[c].Wait()
		if opts.Numeric {
			unpackSlots(full, back, epr, capTokens, h, chunks, c)
		}
	}

	// --- Buffer combine -----------------------------------------------------
	if vendor {
		r.Compute(StageCombine, comp.MemBound(perfmodel.ClassVendor,
			2*int64(e)*int64(capTokens)*int64(h)*combElem))
	} else {
		r.Compute(StageCombine, comp.MaskEinsum(s, e, capTokens, h))
	}
	var out *tensor.Tensor
	if opts.Numeric {
		out = kernels.PaddedCombine(full.Reshape(e, capTokens, h), pa.SlotToken, pa.SlotWeight, capTokens, s)
		if !opts.SaveForBackward {
			pool.Put(full)
		}
	}
	mem.Alloc("output", int64(s)*int64(h)*elem)

	if !opts.RetainActivations {
		mem.Free("mask", maskBytes)
		mem.Free("mask_interm", intermBytes)
		mem.Free("disp_buffer", bufBytes)
		mem.Free("A_dispatch", int64(p)*pairBytes)
		mem.Free("A0_interm", int64(epr*rowsPerExpert)*int64(f)*elem)
		mem.Free("A1_interm", int64(epr*rowsPerExpert)*int64(f)*elem)
		mem.Free("A_combine", int64(e)*int64(capTokens)*int64(h)*combElem)
	}

	res := LayerResult{
		Output:       out,
		RoutedTokens: pa.Occupied,
		RecvTokens:   epr * rowsPerExpert,
		Dropped:      pa.Dropped,
	}
	if opts.SaveForBackward {
		res.PaddedState = &PaddedFwdState{
			S:           s,
			PA:          pa,
			ExpertIn:    expertIn,
			HidPre:      hidPre,
			HidAct:      hidAct,
			CombineFull: full,
		}
	}
	return res
}
