package model

import (
	"fmt"
	"math"
	"testing"
)

// zoo returns the Table 3 configurations in evaluation order.
func zoo() []Shape {
	return []Shape{Small(), Medium(), Large(), Super()}
}

// validate checks the shape for consistency.
func (s Shape) validate() error {
	switch {
	case s.HModel <= 0 || s.HFFN <= 0 || s.Layers <= 0 || s.SeqLen <= 0:
		return fmt.Errorf("model: %s has non-positive dimension", s.Name)
	case s.NumExperts <= 0 || s.TopK <= 0 || s.TopK > s.NumExperts:
		return fmt.Errorf("model: %s has invalid expert config E=%d k=%d", s.Name, s.NumExperts, s.TopK)
	case s.VocabSize <= 0:
		return fmt.Errorf("model: %s has invalid vocab %d", s.Name, s.VocabSize)
	}
	return nil
}

func TestZooValidates(t *testing.T) {
	for _, s := range append(zoo(), SmallSR(), SmallLR()) {
		if err := s.validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestTable3ParamCounts(t *testing.T) {
	// Our two-matrix expert accounting lands within ~10% of the paper's
	// reported totals (Table 3); document the exact ratios here so any
	// drift in the formulas is caught.
	cases := []struct {
		shape Shape
		paper float64 // billions
	}{
		{Small(), 10.1},
		{Medium(), 55.2},
		{Large(), 201.4},
		{Super(), 545.4},
	}
	for _, c := range cases {
		got := float64(c.shape.TotalParams()) / 1e9
		ratio := got / c.paper
		if ratio < 0.9 || ratio > 1.12 {
			t.Errorf("%s: computed %.1fB vs paper %.1fB (ratio %.3f)", c.shape.Name, got, c.paper, ratio)
		}
	}
}

func TestTable3ActivatedParams(t *testing.T) {
	cases := []struct {
		shape Shape
		paper float64 // billions
	}{
		{Small(), 1.3},
		{Medium(), 5.2},
		{Large(), 11.5},
		{Super(), 28.7},
	}
	for _, c := range cases {
		got := float64(c.shape.ActivatedParams()) / 1e9
		ratio := got / c.paper
		if ratio < 0.85 || ratio > 1.35 {
			t.Errorf("%s: activated %.2fB vs paper %.1fB (ratio %.3f)", c.shape.Name, got, c.paper, ratio)
		}
	}
}

func TestActivatedBelowTotal(t *testing.T) {
	for _, s := range zoo() {
		if s.ActivatedParams() >= s.TotalParams() {
			t.Errorf("%s: activated %d >= total %d", s.Name, s.ActivatedParams(), s.TotalParams())
		}
	}
}

func TestConvSpecSizeEquivalence(t *testing.T) {
	// Table 1's defining property: Mconv and Mspec have identical total
	// and activated parameters.
	conv, spec := ConvSpecPair()
	if conv.ExpertParamsPerLayer() != spec.ExpertParamsPerLayer() {
		t.Fatalf("expert params differ: %d vs %d",
			conv.ExpertParamsPerLayer(), spec.ExpertParamsPerLayer())
	}
	convAct := int64(conv.TopK) * 2 * int64(conv.HModel) * int64(conv.HFFN)
	specAct := int64(spec.TopK) * 2 * int64(spec.HModel) * int64(spec.HFFN)
	if convAct != specAct {
		t.Fatalf("activated expert params differ: %d vs %d", convAct, specAct)
	}
	// Fine-grained factor m=8: 8x experts, 8x routing, HFFN/8.
	if spec.NumExperts != 8*conv.NumExperts || spec.TopK != 8*conv.TopK ||
		conv.HFFN != 8*spec.HFFN {
		t.Fatal("Mspec is not the m=8 refinement of Mconv")
	}
}

func TestFLOPsPerToken(t *testing.T) {
	s := Small()
	want := 6 * float64(s.ActivatedParams())
	if math.Abs(s.FLOPsPerToken()-want) > 1 {
		t.Fatal("FLOPsPerToken must follow the 6N rule")
	}
}

func TestWithLayersAndTopK(t *testing.T) {
	s := Large().WithLayers(8)
	if s.Layers != 8 || s.Name != "large-l8" {
		t.Fatalf("WithLayers: %+v", s)
	}
	k := Large().WithTopK(16)
	if k.TopK != 16 || k.Name != "large-k16" {
		t.Fatalf("WithTopK: %+v", k)
	}
	// Scaling depth scales totals linearly (minus embeddings).
	base := Large()
	p8 := base.WithLayers(8).TotalParams() - base.EmbeddingParams()
	p24 := base.WithLayers(24).TotalParams() - base.EmbeddingParams()
	if p24 != 3*p8 {
		t.Fatalf("layer scaling not linear: %d vs 3*%d", p24, p8)
	}
}

func TestValidateCatchesBadShapes(t *testing.T) {
	s := Small()
	s.TopK = s.NumExperts + 1
	if s.validate() == nil {
		t.Fatal("topk > experts must fail")
	}
	s2 := Small()
	s2.HModel = 0
	if s2.validate() == nil {
		t.Fatal("zero hidden must fail")
	}
}
