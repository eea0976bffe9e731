package moe

// PaddedAssignment is the conventional GShard/DeepSpeed-MoE dispatch plan:
// each expert has a fixed-capacity buffer; slot (e, c) either holds a
// source token or stays zero-padded (paper §3.1, Fig. 2). It is the dense
// counterpart of the PFT and drives the baselines' einsum dispatch.
type PaddedAssignment struct {
	// Capacity is the per-expert buffer length C.
	Capacity int
	// SlotToken[e][c] is the token occupying slot c of expert e, or -1.
	SlotToken [][]int
	// SlotWeight[e][c] is that slot's combine weight (0 when empty).
	SlotWeight [][]float32
	// Dropped counts assignments that exceeded capacity (or failed the
	// drop policy) and were discarded.
	Dropped int
	// Occupied counts non-empty slots.
	Occupied int
}

// BuildPaddedAssignment constructs the dense dispatch plan from a routing
// under the given drop policy. Conventional frameworks assign slots
// first-come-first-served in token order; the DeepSpeed-MoE policy also
// drops negative-logit assignments outright.
func BuildPaddedAssignment(r Routing, numExperts, capacity int, policy DropPolicy) *PaddedAssignment {
	pa := &PaddedAssignment{
		Capacity:   capacity,
		SlotToken:  make([][]int, numExperts),
		SlotWeight: make([][]float32, numExperts),
	}
	for e := range pa.SlotToken {
		pa.SlotToken[e] = make([]int, capacity)
		for c := range pa.SlotToken[e] {
			pa.SlotToken[e][c] = -1
		}
		pa.SlotWeight[e] = make([]float32, capacity)
	}
	fill := make([]int, numExperts)
	k := r.K()
	for t := 0; t < r.S; t++ {
		for i := t * k; i < (t+1)*k; i++ {
			e := r.Experts[i]
			if policy == DropNegativeThenPosition && r.Logits != nil && r.Logits[i] < 0 {
				pa.Dropped++
				continue
			}
			if fill[e] >= capacity {
				pa.Dropped++
				continue
			}
			pa.SlotToken[e][fill[e]] = t
			pa.SlotWeight[e][fill[e]] = r.Weights[i]
			fill[e]++
			pa.Occupied++
		}
	}
	return pa
}

// PaddingRatio returns the fraction of buffer slots that are zero-padding
// — the memory and communication waste the PFT eliminates.
func (pa *PaddedAssignment) PaddingRatio() float64 {
	total := len(pa.SlotToken) * pa.Capacity
	if total == 0 {
		return 0
	}
	return 1 - float64(pa.Occupied)/float64(total)
}
