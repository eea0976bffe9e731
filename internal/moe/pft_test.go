package moe

import (
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
	if err := r.Validate(e); err != nil {
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
	if err := r.Validate(e); err != nil {
		t.Fatal(err)
	}
	load := r.ExpertLoad(e)
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
	load0 := r0.ExpertLoad(e)
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
	if err := p.Validate(s, e, 0); err != nil {
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
	seg := p.ExpertSegments()
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

func TestBuildPaddedAssignment(t *testing.T) {
	r := Routing{
		S:       4,
		Experts: []int32{0, 0, 0, 1},
		Weights: []float32{0.5, 0.6, 0.7, 0.8},
		Logits:  []float32{1, 1, 1, 1},
	}
	pa := BuildPaddedAssignment(r, 2, 2, DropByCapacityWeight)
	if pa.Dropped != 1 { // token 2 overflows expert 0
		t.Fatalf("dropped = %d, want 1", pa.Dropped)
	}
	if pa.SlotToken[0][0] != 0 || pa.SlotToken[0][1] != 1 {
		t.Fatalf("expert 0 slots = %v", pa.SlotToken[0])
	}
	if pa.SlotToken[1][0] != 3 || pa.SlotToken[1][1] != -1 {
		t.Fatalf("expert 1 slots = %v", pa.SlotToken[1])
	}
	if pa.Occupied != 3 {
		t.Fatalf("occupied = %d", pa.Occupied)
	}
	if got := pa.PaddingRatio(); got != 0.25 {
		t.Fatalf("padding ratio = %f, want 0.25", got)
	}
}

func TestPaddedAssignmentNegativePolicy(t *testing.T) {
	r := Routing{
		S:       2,
		Experts: []int32{0, 0},
		Weights: []float32{0.5, 0.5},
		Logits:  []float32{-1, 1},
	}
	pa := BuildPaddedAssignment(r, 1, 4, DropNegativeThenPosition)
	if pa.Occupied != 1 || pa.Dropped != 1 {
		t.Fatalf("occupied=%d dropped=%d", pa.Occupied, pa.Dropped)
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
		if err := p.Validate(s, e, capTokens); err != nil {
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

// Property: padded assignment and PFT agree on the retained assignment
// count under the same FCFS-style policy and capacity, and so does the
// slotless padded plan a symbolic layer builds.
func TestQuickPaddedVsPFTRetention(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		s := 1 + rng.Intn(48)
		e := 2 + rng.Intn(12)
		k := 1 + rng.Intn(min(e, 4))
		capTokens := 1 + rng.Intn(s*k)
		r := SyntheticRouting(rng, s, e, k, 0.7)
		p := BuildPFT(r, e, capTokens, DropNegativeThenPosition)
		pa := BuildPaddedAssignment(r, e, capTokens, DropNegativeThenPosition)
		counts := buildPaddedAssignment(r, e, capTokens, DropNegativeThenPosition, false)
		return p.B() == pa.Occupied && p.Dropped == pa.Dropped &&
			counts.Occupied == pa.Occupied && counts.Dropped == pa.Dropped &&
			counts.PaddingRatio() == pa.PaddingRatio() && counts.SlotToken == nil && counts.SlotWeight == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
