package moe

import "fmt"

// DropPolicy selects the token-dropping semantics of PFT construction.
// The paper's §5.6 traces the small loss-curve gap between X-MoE and
// DeepSpeed-MoE to exactly this difference.
type DropPolicy int

const (
	// DropByCapacityWeight is X-MoE's policy (Listing 1): a token is
	// dropped from an expert only when the expert's capacity is
	// exceeded, keeping the highest-combine-weight assignments.
	DropByCapacityWeight DropPolicy = iota
	// DropNegativeThenPosition is DeepSpeed-MoE's policy: assignments
	// with a negative raw routing score are dropped regardless of
	// capacity, then capacity overflow drops by token position
	// (first-come-first-served).
	DropNegativeThenPosition
)

// PFT is the Padding-Free Token buffer (paper §4.1.1): a dense token
// buffer holding only valid routed tokens, plus the Expert Routing
// Information arrays (ERI-arrays) that drive every later stage. Entries
// are ordered expert-major (ascending ExpertIDs), so per-expert segments
// are contiguous — the property the uneven all-to-all and sequential GEMM
// rely on.
//
// The padded pipeline runs on the same structure laid out with capacity
// padding (buildPFT's padded mode): every segment holds C rows, and rows no
// token took are holes.
//
// A symbolic layer's PFT (a layer handed no x) carries counts only:
// TokensPerExpert and Dropped, with nil rows, since no symbolic charge
// reads a row. That holds for every transport. RBD groups the rows by
// token to count its pilots, so its symbolic layer builds TokenIDs and
// CombineWeights in a Scratch set and drops them when the grouping
// returns (ReleaseScratch); ExpertIDs only a numeric layer builds.
// BuildPFT always fills every row.
type PFT struct {
	// TokenIDs[i] is the original token index of buffer row i, or -1 for
	// a hole of the padded layout.
	TokenIDs []int
	// ExpertIDs[i] is the destination expert of buffer row i: nil in a
	// symbolic layer's PFT, whose segments TokensPerExpert delimits.
	ExpertIDs []int
	// TokensPerExpert[e] is the number of rows routed to expert e.
	TokensPerExpert []int
	// CombineWeights[i] scales row i's expert output in the combine
	// stage.
	CombineWeights []float32
	// Dropped is the number of (token, expert) assignments removed by
	// the drop policy.
	Dropped int
	// scratch is the set a grouping of the rows works in, held from
	// Scratch (or the build) to ReleaseScratch; scratchRows says
	// TokenIDs and CombineWeights live in it, as a symbolic layer's do.
	scratch     *Scratch
	scratchRows bool
}

// B returns the number of retained routed-token rows.
func (p *PFT) B() int { return sum(p.TokensPerExpert) }

// BuildPFT constructs the PFT from a routing per Listing 1: flatten the
// [S, K] assignment array, order entries expert-major, apply the drop
// policy against maxTokenCount (the expert capacity), and emit the
// ERI-arrays. A maxTokenCount <= 0 means unlimited capacity.
func BuildPFT(r Routing, numExperts, maxTokenCount int, policy DropPolicy) *PFT {
	return buildPFT(r, numExperts, nil, maxTokenCount, policy, true, false, nil).withExpertIDs()
}

// buildPFT makes two passes over the routing, straight into the final
// ERI-arrays: a per-expert histogram of the assignments that survive the
// negative-score drop, then — from its prefix sums — a stable placement
// that keeps flat (t*k+j) order inside each expert segment. First-come
// capacity dropping falls out of the placement (a full segment takes no
// more rows); weight-ordered dropping places every candidate, then
// compacts the over-capacity segments in place. The clamped histogram is
// already TokensPerExpert and Dropped, so without rows it stops there.
// The histogram adds each assignment's keep test as an integer, not a
// branch: a logit's sign is data the predictor cannot learn. With rows it
// fills TokenIDs and CombineWeights, in sc when it is set (nil: fresh
// arrays); ExpertIDs is withExpertIDs' to add. A non-nil caps must have
// one entry per expert.
//
// padded builds the capacity-padded layout of the conventional pipeline
// (paper §3.1, Fig. 2) instead: every expert segment is maxTokenCount rows
// long, slots fill first-come-first-served under either policy, and a
// slot no token took is a hole, token -1 and weight 0. Its TokensPerExpert
// are the segment lengths, so B counts the holes.
func buildPFT(r Routing, numExperts int, caps []int, maxTokenCount int, policy DropPolicy, rows, padded bool, sc *Scratch) *PFT {
	if caps != nil && len(caps) != numExperts {
		panic(fmt.Sprintf("moe: capacity vector has %d entries for %d experts", len(caps), numExperts))
	}
	k := r.K()
	dropNegative := policy == DropNegativeThenPosition && r.Logits != nil // unknown logits count as positive
	byWeight := policy == DropByCapacityWeight && !padded

	// counts[e] becomes the retained rows of expert e; [next[e], end[e])
	// is the segment the placement fills, which under byWeight still
	// holds every candidate of an over-capacity expert, and in a padded
	// layout starts a capacity-long segment. One backing holds all three,
	// or only counts without rows.
	n := numExperts
	if rows {
		n *= 3
	}
	ints := make([]int, n)
	counts := ints[:numExperts:numExperts]
	var next, end []int
	if rows {
		next, end = ints[numExperts:2*numExperts], ints[2*numExperts:]
	}
	if dropNegative {
		// !(l < 0) keeps -0 and NaN, as the placement below does.
		for i, e := range r.Experts {
			counts[e] += b2i(!(r.Logits[i] < 0))
		}
	} else {
		for _, e := range r.Experts {
			counts[e]++
		}
	}

	placed, maxOver, kept := 0, 0, 0
	for e, c := range counts {
		limit := maxTokenCount
		if caps != nil {
			limit = caps[e]
		}
		if limit > 0 && c > limit {
			counts[e] = limit
			if byWeight {
				maxOver = max(maxOver, c)
			} else {
				c = limit
			}
		}
		kept += counts[e]
		if rows {
			next[e], end[e] = placed, placed+c
		}
		if padded {
			c, counts[e] = limit, limit
		}
		placed += c
	}
	if !rows {
		return &PFT{TokensPerExpert: counts, Dropped: len(r.Experts) - kept}
	}

	var tokenIDs []int
	var weights []float32
	if sc != nil {
		tokenIDs, weights = sc.rows(placed)
	} else {
		tokenIDs, weights = make([]int, placed), make([]float32, placed)
	}
	if padded {
		// Every hole is token -1 and weight 0, whatever sc held.
		fill(tokenIDs, -1)
		clear(weights)
	}
	for t := 0; t < r.S; t++ {
		for i := t * k; i < (t+1)*k; i++ {
			if dropNegative && r.Logits[i] < 0 {
				continue
			}
			e := r.Experts[i]
			if pos := next[e]; pos < end[e] {
				tokenIDs[pos] = t
				weights[pos] = r.Weights[i]
				next[e] = pos + 1
			}
		}
	}

	if maxOver > 0 {
		// Keep the limit highest-weight rows of each over-capacity segment
		// (Listing 1 lines 24-33) in flat order. Under the strict total
		// order (weight desc, flat asc) that set is: every row above the
		// limit-th largest weight, plus the earliest rows equal to it
		// until the segment is full — so no sort is needed, only the
		// threshold. One selection buffer serves every segment: the scratch
		// set's when the rows live in one.
		var scratch []float32
		if sc != nil {
			scratch = sc.overflow(maxOver)
		} else {
			scratch = make([]float32, maxOver)
		}
		w, lo := 0, 0
		for e, keep := range counts {
			hi := end[e]
			if hi-lo == keep {
				copy(tokenIDs[w:], tokenIDs[lo:hi])
				copy(weights[w:], weights[lo:hi])
				w += keep
			} else {
				seg := weights[lo:hi]
				thr := kthLargest(scratch[:copy(scratch, seg)], keep)
				ties := keep
				for _, x := range seg {
					if x > thr {
						ties--
					}
				}
				for i, x := range seg {
					if x == thr && ties > 0 {
						ties-- // an admitted tie
					} else if x <= thr {
						continue
					}
					tokenIDs[w] = tokenIDs[lo+i]
					weights[w] = x
					w++
				}
			}
			lo = hi
		}
		tokenIDs, weights = tokenIDs[:w:w], weights[:w:w]
	}

	return &PFT{
		TokenIDs:        tokenIDs,
		TokensPerExpert: counts,
		CombineWeights:  weights,
		Dropped:         len(r.Experts) - kept,
		scratch:         sc,
		scratchRows:     sc != nil,
	}
}

// withExpertIDs fills p.ExpertIDs from the segment lengths and returns p.
func (p *PFT) withExpertIDs() *PFT {
	p.ExpertIDs = make([]int, len(p.TokenIDs))
	row := 0
	for e, c := range p.TokensPerExpert {
		for hi := row + c; row < hi; row++ {
			p.ExpertIDs[row] = e
		}
	}
	return p
}

// b2i is 1 for true and 0 for false, compiled to a flag set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// kthLargest returns the k-th largest value of a (1 <= k <= len(a)),
// reordering a. Three-way quickselect with a median-of-three pivot:
// expected linear time, and a run of equal weights (the tie case) ends in
// one partition instead of degrading.
func kthLargest(a []float32, k int) float32 {
	lo, hi := 0, len(a)
	for {
		pivot := a[lo+(hi-lo)/2]
		if x, y := a[lo], a[hi-1]; (x > pivot) != (x > y) {
			pivot = x
		} else if (y > pivot) != (y > x) {
			pivot = y
		}
		// a[lo:gt] > pivot, a[gt:i] == pivot, a[lt:hi] < pivot.
		gt, i, lt := lo, lo, hi
		for i < lt {
			switch x := a[i]; {
			case x > pivot:
				a[gt], a[i] = x, a[gt]
				gt++
				i++
			case x < pivot:
				lt--
				a[i], a[lt] = a[lt], x
			default:
				i++
			}
		}
		switch {
		case k <= gt:
			hi = gt
		case k > lt:
			lo = lt
		default:
			return pivot
		}
	}
}

// ERIBytes returns the memory footprint of the ERI-arrays (int32 ids and
// counts, float32 weights), for activation accounting — the same for a
// counts-only PFT as for the rows it stands for.
func (p *PFT) ERIBytes() int64 {
	return int64(p.B())*(4+4+4) + int64(len(p.TokensPerExpert))*4
}
