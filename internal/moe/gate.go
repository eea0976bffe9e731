package moe

import (
	"fmt"
	"math"

	"xmoe/internal/tensor"
)

// Routing is the output of the MoE gating function for a batch of S local
// tokens: for each token, the top-k experts in descending score order,
// their softmax probabilities (the combine weights), and the raw logits of
// the selected experts (needed by DeepSpeed-MoE's drop-negative-score
// policy, §5.6).
//
// The top-k is flat, token-major data: assignment j of token t sits at
// index t*K()+j of each array. 12 bytes per assignment and no per-token
// slice header, so the symbolic sweeps can hold one routing per rank for
// a whole run.
type Routing struct {
	// S is the number of local tokens routed.
	S int
	// Experts[t*K()+j] is the j-th chosen expert of token t.
	Experts []int32
	// Weights[t*K()+j] is the gating probability of that assignment.
	Weights []float32
	// Logits[t*K()+j] is the raw (pre-softmax) gate logit of that
	// assignment; nil when the producer does not track it.
	Logits []float32
}

// K returns the routing fan-out (0 for an empty routing).
func (r Routing) K() int {
	if r.S <= 0 {
		return 0
	}
	return len(r.Experts) / r.S
}

// Gate computes the gating function of Listing 1 (lines 1-8) numerically:
// logits = x·wg, softmax over experts, top-k selection. x is [S, H] and wg
// is [H, E]. The returned routing carries both probabilities and raw
// logits.
func Gate(x, wg *tensor.Tensor, k int) Routing {
	logits := tensor.MatMul(x, wg)
	probs := logits.Clone()
	tensor.SoftmaxRows(probs)
	return TopKRouting(logits, probs, k)
}

// TopKRouting assembles a numeric gate's routing from its [S, E] scores:
// each token takes the k experts of highest probability (probs is the
// row softmax of logits), their probabilities as combine weights and their
// raw logits.
func TopKRouting(logits, probs *tensor.Tensor, k int) Routing {
	idx, weights := tensor.TopK(probs, k)
	r := Routing{S: probs.Rows(), Experts: make([]int32, len(idx)), Weights: weights, Logits: make([]float32, len(idx))}
	k = r.K()
	for i, e := range idx {
		r.Experts[i] = int32(e)
		r.Logits[i] = logits.At(i/k, e)
	}
	return r
}

// SyntheticRouting generates a deterministic, realistically imbalanced
// routing for S tokens over E experts with fan-out k. Expert popularity
// follows a Zipf-like distribution with exponent skew (0 = uniform);
// per-token experts are sampled without replacement proportionally to
// popularity. The skewed load is what makes capacity padding wasteful in
// the baselines and gives RBD its node-level redundancy.
func SyntheticRouting(rng *tensor.RNG, s, e, k int, skew float64) Routing {
	if k > e {
		panic(fmt.Sprintf("moe: k=%d exceeds experts=%d", k, e))
	}
	// Popularity: Zipf over a shuffled expert order so hot experts are
	// scattered across ranks/nodes rather than clustered at low IDs.
	pop := make([]float64, e)
	perm := rng.Perm(e)
	for i := 0; i < e; i++ {
		pop[perm[i]] = math.Pow(float64(i+1), -skew)
	}
	// Cumulative weights, searched through a guide table; duplicates are
	// rejected and redrawn (k << E makes this cheap), with a bounded-retry
	// fallback scan for pathological cases.
	cum := make([]float64, e)
	run := 0.0
	for i, v := range pop {
		run += v
		cum[i] = run
	}
	total := run
	search := newCumSearch(cum)

	r := Routing{
		S:       s,
		Experts: make([]int32, s*k),
		Weights: make([]float32, s*k),
		Logits:  make([]float32, s*k),
	}
	chosenSet := make([]bool, e)
	// Each token draws 2k normals: each expert's logit right after its
	// pick, then k weight pseudo-scores. They come through one NormBlock
	// per block of tokens, in three passes: the picks and the normals'
	// uniform draws, in the RNG order of one normal at a time; the
	// block's log/sqrt pass; then logits, weights and the top-k sort,
	// reading each token's 2k normals in turn from the block. When they
	// do not fit in a block (k above NormBlockLen/2), each full block is
	// copied out to long and reopened mid-token.
	per := max(1, tensor.NormBlockLen/(2*max(k, 1)))
	var long []float64
	if 2*k > tensor.NormBlockLen {
		long = make([]float64, 2*k)
	}
	var nb tensor.NormBlock
	for t0 := 0; t0 < s; t0 += per {
		t1 := min(s, t0+per)
		nb.Open(rng)
		spilled := 0
		for t := t0; t < t1; t++ {
			experts := r.Experts[t*k : (t+1)*k]
			// Normal j is the logit of the expert picked just before it
			// for j < k, and a weight's pseudo-score from k on.
			for j := 0; j < 2*k; j++ {
				if j < k {
					idx := -1
					for attempt := 0; attempt < 64; attempt++ {
						cand := search.find(rng.Float64() * total)
						if cand >= e {
							cand = e - 1
						}
						if !chosenSet[cand] {
							idx = cand
							break
						}
					}
					if idx < 0 {
						// Fallback: take the first unchosen expert.
						for cand := 0; cand < e; cand++ {
							if !chosenSet[cand] {
								idx = cand
								break
							}
						}
					}
					chosenSet[idx] = true
					experts[j] = int32(idx)
				}
				if nb.Full() {
					spilled += copy(long[spilled:], nb.Resolve(rng))
					nb.Open(rng)
				}
				nb.Reserve(rng)
			}
			for _, ex := range experts {
				chosenSet[ex] = false
			}
		}
		normals := nb.Resolve(rng)
		if long != nil {
			copy(long[spilled:], normals)
			normals = long
		}
		for t := t0; t < t1; t++ {
			experts := r.Experts[t*k : (t+1)*k]
			weights := r.Weights[t*k : (t+1)*k]
			logits := r.Logits[t*k : (t+1)*k]
			v := normals[(t-t0)*2*k : (t-t0+1)*2*k]
			for j := range logits {
				logits[j] = float32(v[j] + 1.0)
			}
			// Combine weights: softmax over k pseudo-scores, descending to
			// mimic top-k ordering.
			scores := v[k:]
			var sum float64
			for j, x := range scores {
				scores[j] = math.Exp(x)
				sum += scores[j]
			}
			for j, x := range scores {
				weights[j] = float32(x / sum * 0.9) // headroom below 1.0
			}
			// Sort selections by weight descending (top-k order): an
			// exchange sort, with position a's entry held in registers
			// while b scans.
			for a := 0; a < k; a++ {
				wa, ea, la := weights[a], experts[a], logits[a]
				for b := a + 1; b < k; b++ {
					if wb := weights[b]; wb > wa {
						weights[b], experts[b], logits[b], wa, ea, la = wa, ea, la, wb, experts[b], logits[b]
					}
				}
				weights[a], experts[a], logits[a] = wa, ea, la
			}
		}
	}
	return r
}

// cumSearch finds the first index of a nondecreasing cumulative-weight
// array whose value reaches a target — sort.SearchFloat64s's answer — in
// expected O(1): a guide table splits [0, total) into len(cum) equal
// buckets and holds, per bucket, an index near the bucket's first entry.
// The lookup starts there and scans back, then forward, to the exact
// answer, so the guide only decides where the scans start: rounding in
// the bucket arithmetic can cost a step, never move the result.
type cumSearch struct {
	cum   []float64
	guide []int
	scale float64 // buckets per unit of weight: len(cum) / total
}

func newCumSearch(cum []float64) cumSearch {
	n := len(cum)
	c := cumSearch{cum: cum, guide: make([]int, n)}
	if n == 0 {
		return c
	}
	c.scale = float64(n) / cum[n-1]
	i := 0
	for b := range c.guide {
		edge := float64(b) / c.scale
		for i < n-1 && cum[i] < edge {
			i++
		}
		c.guide[b] = i
	}
	return c
}

// find returns the smallest i with cum[i] >= target, or len(cum) when
// there is none. cum must be non-empty and target not NaN.
func (c cumSearch) find(target float64) int {
	b := min(int(target*c.scale), len(c.guide)-1)
	i := c.guide[max(b, 0)]
	for i > 0 && c.cum[i-1] >= target {
		i--
	}
	for i < len(c.cum) && c.cum[i] < target {
		i++
	}
	return i
}
