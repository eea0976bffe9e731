package moe

// PaddedAssignment is the conventional GShard/DeepSpeed-MoE dispatch plan:
// each expert has a fixed-capacity buffer; slot (e, c) either holds a
// source token or stays zero-padded (paper §3.1, Fig. 2). It is the dense
// counterpart of the PFT and drives the baselines' einsum dispatch.
//
// A symbolic layer's plan (PaddedForward without opts.Numeric) carries
// counts only: Capacity, Dropped and Occupied, with nil slot tables, since
// no symbolic pass moves a row. BuildPaddedAssignment always fills them.
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
	// numExperts is the number of expert buffers.
	numExperts int
}

// BuildPaddedAssignment constructs the dense dispatch plan from a routing
// under the given drop policy. Conventional frameworks assign slots
// first-come-first-served in token order; the DeepSpeed-MoE policy also
// drops negative-logit assignments outright.
func BuildPaddedAssignment(r Routing, numExperts, capacity int, policy DropPolicy) *PaddedAssignment {
	return buildPaddedAssignment(r, numExperts, capacity, policy, true)
}

// buildPaddedAssignment is BuildPaddedAssignment; without slots it counts
// Occupied and Dropped and allocates no slot table. The slot rows are views
// into one backing per table.
func buildPaddedAssignment(r Routing, numExperts, capacity int, policy DropPolicy, slots bool) *PaddedAssignment {
	pa := &PaddedAssignment{Capacity: capacity, numExperts: numExperts}
	if slots {
		pa.SlotToken = make([][]int, numExperts)
		pa.SlotWeight = make([][]float32, numExperts)
		tokens := make([]int, numExperts*capacity)
		for c := range tokens {
			tokens[c] = -1
		}
		weights := make([]float32, numExperts*capacity)
		for e := range pa.SlotToken {
			lo, hi := e*capacity, (e+1)*capacity
			pa.SlotToken[e], pa.SlotWeight[e] = tokens[lo:hi:hi], weights[lo:hi:hi]
		}
	}
	fill := make([]int, numExperts)
	k := r.K()
	dropNegative := policy == DropNegativeThenPosition && r.Logits != nil
	for t := 0; t < r.S; t++ {
		for i := t * k; i < (t+1)*k; i++ {
			e := r.Experts[i]
			if dropNegative && r.Logits[i] < 0 || fill[e] >= capacity {
				continue
			}
			if slots {
				pa.SlotToken[e][fill[e]] = t
				pa.SlotWeight[e][fill[e]] = r.Weights[i]
			}
			fill[e]++
		}
	}
	// Every assignment either took a slot or was dropped.
	for _, n := range fill {
		pa.Occupied += n
	}
	pa.Dropped = len(r.Experts) - pa.Occupied
	return pa
}

// PaddingRatio returns the fraction of buffer slots that are zero-padding
// — the memory and communication waste the PFT eliminates.
func (pa *PaddedAssignment) PaddingRatio() float64 {
	total := pa.numExperts * pa.Capacity
	if total == 0 {
		return 0
	}
	return 1 - float64(pa.Occupied)/float64(total)
}
