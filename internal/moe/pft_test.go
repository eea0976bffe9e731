package moe

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"xmoe/internal/tensor"
)

func testConfig() Config {
	return Config{
		NumExperts:     8,
		TopK:           3,
		HModel:         16,
		HFFN:           8,
		CapacityFactor: 1.25,
		BytesPerElem:   2,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{NumExperts: 0, TopK: 1, HModel: 1, HFFN: 1, CapacityFactor: 1, BytesPerElem: 2},
		{NumExperts: 4, TopK: 5, HModel: 1, HFFN: 1, CapacityFactor: 1, BytesPerElem: 2},
		{NumExperts: 4, TopK: 2, HModel: 0, HFFN: 1, CapacityFactor: 1, BytesPerElem: 2},
		{NumExperts: 4, TopK: 2, HModel: 1, HFFN: 1, CapacityFactor: 0, BytesPerElem: 2},
		{NumExperts: 4, TopK: 2, HModel: 1, HFFN: 1, CapacityFactor: -1, BytesPerElem: 2},
		{NumExperts: 4, TopK: 2, HModel: 1, HFFN: 1, CapacityFactor: math.NaN(), BytesPerElem: 2},
		{NumExperts: 4, TopK: 2, HModel: 1, HFFN: 1, CapacityFactor: math.Inf(1), BytesPerElem: 2},
		{NumExperts: 4, TopK: 2, HModel: 1, HFFN: 1, CapacityFactor: 1, BytesPerElem: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should fail validation", i)
		}
	}
}

func TestCapacityFormula(t *testing.T) {
	c := Config{NumExperts: 64, TopK: 6, CapacityFactor: 1.25, HModel: 1, HFFN: 1, BytesPerElem: 2}
	// 2048 tokens * 6 / 64 = 192 avg; * 1.25 = 240.
	if got := c.Capacity(2048); got != 240 {
		t.Fatalf("Capacity(2048) = %d, want 240", got)
	}
	// Capacity never falls below 1.
	if got := c.Capacity(1); got < 1 {
		t.Fatalf("Capacity(1) = %d", got)
	}
}

func TestGateNumericRouting(t *testing.T) {
	rng := tensor.NewRNG(11)
	s, h, e, k := 12, 16, 8, 3
	x := tensor.Randn(rng, 1, s, h)
	wg := tensor.Randn(rng, 0.5, h, e)
	r := Gate(x, wg, k)
	if err := r.validate(e); err != nil {
		t.Fatal(err)
	}
	if r.S != s || r.K() != k {
		t.Fatalf("routing S=%d K=%d", r.S, r.K())
	}
	for tok := 0; tok < s; tok++ {
		// Weights must be descending (top-k order).
		row := r.Weights[tok*k : (tok+1)*k]
		for j := 1; j < k; j++ {
			if row[j] > row[j-1] {
				t.Fatalf("token %d weights not descending: %v", tok, row)
			}
		}
	}
}

func TestSyntheticRoutingValidAndSkewed(t *testing.T) {
	rng := tensor.NewRNG(13)
	s, e, k := 512, 64, 6
	r := SyntheticRouting(rng, s, e, k, 1.0)
	if err := r.validate(e); err != nil {
		t.Fatal(err)
	}
	load := r.expertLoad(e)
	sum, maxLoad := 0, 0
	for _, l := range load {
		sum += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if sum != s*k {
		t.Fatalf("total load %d != S*K %d", sum, s*k)
	}
	avg := float64(sum) / float64(e)
	if float64(maxLoad) < 1.5*avg {
		t.Fatalf("skew=1.0 should produce imbalance: max %d vs avg %.1f", maxLoad, avg)
	}
	// Uniform routing should be much flatter.
	r0 := SyntheticRouting(tensor.NewRNG(13), s, e, k, 0)
	load0 := r0.expertLoad(e)
	max0 := 0
	for _, l := range load0 {
		if l > max0 {
			max0 = l
		}
	}
	if max0 >= maxLoad {
		t.Fatalf("uniform max load %d should be below skewed %d", max0, maxLoad)
	}
}

func TestSyntheticRoutingDeterministic(t *testing.T) {
	a := SyntheticRouting(tensor.NewRNG(7), 64, 16, 4, 0.8)
	b := SyntheticRouting(tensor.NewRNG(7), 64, 16, 4, 0.8)
	if !slices.Equal(a.Experts, b.Experts) {
		t.Fatal("synthetic routing not deterministic")
	}
}

func TestBuildPFTNoDropping(t *testing.T) {
	rng := tensor.NewRNG(17)
	s, e, k := 32, 8, 3
	r := SyntheticRouting(rng, s, e, k, 0.5)
	p := BuildPFT(r, e, 0, DropByCapacityWeight) // unlimited capacity
	if err := p.validate(s, e, 0); err != nil {
		t.Fatal(err)
	}
	if p.B() != s*k || p.Dropped != 0 {
		t.Fatalf("B=%d dropped=%d, want %d/0", p.B(), p.Dropped, s*k)
	}
}

func TestBuildPFTCapacityDropsLowestWeights(t *testing.T) {
	// 4 tokens all routed to expert 0 (k=1) with distinct weights;
	// capacity 2 must keep the two heaviest.
	r := Routing{
		S:       4,
		Experts: []int32{0, 0, 0, 0},
		Weights: []float32{0.1, 0.9, 0.5, 0.7},
		Logits:  []float32{1, 1, 1, 1},
	}
	p := BuildPFT(r, 2, 2, DropByCapacityWeight)
	if p.B() != 2 || p.Dropped != 2 {
		t.Fatalf("B=%d dropped=%d", p.B(), p.Dropped)
	}
	kept := map[int]bool{p.TokenIDs[0]: true, p.TokenIDs[1]: true}
	if !kept[1] || !kept[3] {
		t.Fatalf("kept tokens %v, want {1,3} (weights 0.9, 0.7)", p.TokenIDs)
	}
	// Retained entries stay in token order within the expert segment.
	if p.TokenIDs[0] != 1 || p.TokenIDs[1] != 3 {
		t.Fatalf("segment order %v, want flat order [1 3]", p.TokenIDs)
	}
}

func TestBuildPFTDSMoEPolicyDropsNegativeLogits(t *testing.T) {
	r := Routing{
		S:       3,
		Experts: []int32{0, 0, 1},
		Weights: []float32{0.9, 0.8, 0.7},
		Logits:  []float32{-0.5, 0.5, 0.5},
	}
	p := BuildPFT(r, 2, 10, DropNegativeThenPosition)
	if p.B() != 2 || p.Dropped != 1 {
		t.Fatalf("B=%d dropped=%d, want 2/1", p.B(), p.Dropped)
	}
	for _, tid := range p.TokenIDs {
		if tid == 0 {
			t.Fatal("negative-logit token 0 must be dropped")
		}
	}
	// Same routing under the X-MoE policy keeps everything: this is the
	// §5.6 difference that lets X-MoE retain more tokens per batch.
	px := BuildPFT(r, 2, 10, DropByCapacityWeight)
	if px.B() != 3 || px.Dropped != 0 {
		t.Fatalf("X-MoE policy B=%d dropped=%d, want 3/0", px.B(), px.Dropped)
	}
}

func TestBuildPFTDSMoEPositionalCapacity(t *testing.T) {
	r := Routing{
		S:       3,
		Experts: []int32{0, 0, 0},
		Weights: []float32{0.1, 0.2, 0.9},
		Logits:  []float32{1, 1, 1},
	}
	p := BuildPFT(r, 1, 2, DropNegativeThenPosition)
	// FCFS keeps tokens 0,1 even though token 2 has the top weight.
	if p.B() != 2 || p.TokenIDs[0] != 0 || p.TokenIDs[1] != 1 {
		t.Fatalf("FCFS kept %v", p.TokenIDs)
	}
}

func TestBuildPFTNilLogitsTreatedPositive(t *testing.T) {
	r := Routing{
		S:       2,
		Experts: []int32{0, 1},
		Weights: []float32{0.5, 0.5},
	}
	p := BuildPFT(r, 2, 5, DropNegativeThenPosition)
	if p.B() != 2 {
		t.Fatalf("nil logits should drop nothing, B=%d", p.B())
	}
}

func TestPFTExpertSegments(t *testing.T) {
	p := &PFT{TokensPerExpert: []int{2, 0, 3}}
	seg := p.expertSegments()
	if seg[0] != 0 || seg[1] != 2 || seg[2] != 2 {
		t.Fatalf("segments = %v", seg)
	}
}

func TestPFTERIBytes(t *testing.T) {
	p := &PFT{
		TokenIDs:        make([]int, 10),
		ExpertIDs:       make([]int, 10),
		CombineWeights:  make([]float32, 10),
		TokensPerExpert: []int{4, 0, 5, 1},
	}
	if got := p.ERIBytes(); got != 10*12+4*4 {
		t.Fatalf("ERIBytes = %d", got)
	}
	// A counts-only PFT is accounted as the rows it stands for.
	counts := &PFT{TokensPerExpert: p.TokensPerExpert}
	if got := counts.ERIBytes(); got != 10*12+4*4 {
		t.Fatalf("counts-only ERIBytes = %d", got)
	}
}

// TestBuildPaddedAssignment pins the capacity-padded layout the padded
// pipeline runs on: C-row segments filled first-come-first-served by
// position under either policy, and holes (token -1, weight 0) after the
// retained rows.
func TestBuildPaddedAssignment(t *testing.T) {
	r := Routing{
		S:       4,
		Experts: []int32{0, 0, 0, 1},
		Weights: []float32{0.5, 0.6, 0.7, 0.8},
		Logits:  []float32{1, 1, 1, 1},
	}
	// Capacity-weight dropping would keep tokens 1 and 2; the padded
	// layout keeps the first two by position.
	p := buildPFT(r, 2, nil, 2, DropByCapacityWeight, true, true, nil).withExpertIDs()
	if p.Dropped != 1 { // token 2 overflows expert 0
		t.Fatalf("dropped = %d, want 1", p.Dropped)
	}
	if got := fmt.Sprint(p.TokenIDs, p.CombineWeights, p.ExpertIDs, p.TokensPerExpert); got != "[0 1 3 -1] [0.5 0.6 0.8 0] [0 0 1 1] [2 2]" {
		t.Fatalf("padded layout = %s", got)
	}
	if p.B() != 4 {
		t.Fatalf("B = %d, want the 4 slots", p.B())
	}
}

// TestPaddedAssignmentNegativePolicy checks that the padded layout drops
// negative scores first under DropNegativeThenPosition and leaves their
// slots as holes.
func TestPaddedAssignmentNegativePolicy(t *testing.T) {
	neg := Routing{S: 2, Experts: []int32{0, 0}, Weights: []float32{0.5, 0.5}, Logits: []float32{-1, 1}}
	p := buildPFT(neg, 1, nil, 4, DropNegativeThenPosition, true, true, nil)
	if p.Dropped != 1 || fmt.Sprint(p.TokenIDs) != "[1 -1 -1 -1]" {
		t.Fatalf("dropped=%d slots=%v", p.Dropped, p.TokenIDs)
	}
}

// Property: every PFT built from a valid synthetic routing satisfies its
// structural invariants; retained+dropped covers all S*K assignments; no
// expert exceeds capacity.
func TestQuickPFTInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		s := 1 + rng.Intn(64)
		e := 2 + rng.Intn(16)
		k := 1 + rng.Intn(min(e, 4))
		capTokens := 1 + rng.Intn(s*k)
		policy := DropPolicy(rng.Intn(2))
		r := SyntheticRouting(rng, s, e, k, rng.Float64()*1.5)
		p := BuildPFT(r, e, capTokens, policy)
		if err := p.validate(s, e, capTokens); err != nil {
			t.Logf("invariant violated: %v", err)
			return false
		}
		if p.B()+p.Dropped != s*k {
			t.Logf("B %d + dropped %d != %d", p.B(), p.Dropped, s*k)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: the padded layout and the PFT agree on the retained
// assignments under the same FCFS-style policy and capacity — the padded
// layout's non-hole rows are the PFT's rows, segment by segment — and so
// does the counts-only padded layout a symbolic layer builds.
func TestQuickPaddedVsPFTRetention(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		s := 1 + rng.Intn(48)
		e := 2 + rng.Intn(12)
		k := 1 + rng.Intn(min(e, 4))
		capTokens := 1 + rng.Intn(s*k)
		r := SyntheticRouting(rng, s, e, k, 0.7)
		p := BuildPFT(r, e, capTokens, DropNegativeThenPosition)
		pad := buildPFT(r, e, nil, capTokens, DropNegativeThenPosition, true, true, nil).withExpertIDs()
		counts := buildPFT(r, e, nil, capTokens, DropNegativeThenPosition, false, true, nil)
		if pad.B() != e*capTokens || pad.Dropped != p.Dropped || counts.Dropped != p.Dropped ||
			counts.TokenIDs != nil || fmt.Sprint(counts.TokensPerExpert) != fmt.Sprint(pad.TokensPerExpert) {
			return false
		}
		seg := p.expertSegments()
		for ex := 0; ex < e; ex++ {
			for c := 0; c < capTokens; c++ {
				i, tok, w := ex*capTokens+c, -1, float32(0)
				if c < p.TokensPerExpert[ex] {
					tok, w = p.TokenIDs[seg[ex]+c], p.CombineWeights[seg[ex]+c]
				}
				if pad.TokenIDs[i] != tok || pad.CombineWeights[i] != w || pad.ExpertIDs[i] != ex {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// validate checks the PFT's structural invariants: expert-major ordering,
// histogram consistency, and index ranges.
func (p *PFT) validate(numTokens, numExperts, maxTokenCount int) error {
	if len(p.ExpertIDs) != len(p.TokenIDs) || len(p.CombineWeights) != len(p.TokenIDs) {
		return fmt.Errorf("moe: PFT ERI-array lengths disagree")
	}
	if len(p.TokensPerExpert) != numExperts {
		return fmt.Errorf("moe: TokensPerExpert has %d bins, want %d", len(p.TokensPerExpert), numExperts)
	}
	hist := make([]int, numExperts)
	prev := -1
	for i, e := range p.ExpertIDs {
		if e < 0 || e >= numExperts {
			return fmt.Errorf("moe: entry %d routed to expert %d outside range", i, e)
		}
		if e < prev {
			return fmt.Errorf("moe: PFT not expert-major at entry %d", i)
		}
		prev = e
		if tid := p.TokenIDs[i]; tid < 0 || tid >= numTokens {
			return fmt.Errorf("moe: entry %d token %d outside range", i, tid)
		}
		hist[e]++
	}
	for e, c := range hist {
		if c != p.TokensPerExpert[e] {
			return fmt.Errorf("moe: TokensPerExpert[%d]=%d but %d entries", e, p.TokensPerExpert[e], c)
		}
		if maxTokenCount > 0 && c > maxTokenCount {
			return fmt.Errorf("moe: expert %d holds %d > capacity %d", e, c, maxTokenCount)
		}
	}
	return nil
}

// expertSegments returns the start offset of each expert's contiguous
// segment in the buffer (exclusive prefix sums of TokensPerExpert).
func (p *PFT) expertSegments() []int {
	off := make([]int, len(p.TokensPerExpert))
	run := 0
	for e, c := range p.TokensPerExpert {
		off[e] = run
		run += c
	}
	return off
}
