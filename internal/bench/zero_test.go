package bench

import (
	"strings"
	"testing"

	"xmoe/internal/transport"
)

// TestAblationZeROOverlapWins pins the ablation's acceptance criterion:
// every cell runs, for every transport the bucketed overlapped gradient
// sync beats the blocking tail, and ZeRO-2 shrinks the per-rank model
// states.
func TestAblationZeROOverlapWins(t *testing.T) {
	r := quick(t, "abl-zero")
	cells := 0
	for _, row := range r.list {
		if (strings.HasSuffix(row.Key, "/blocking") || strings.HasSuffix(row.Key, "/overlap")) && row.Sim <= 0 {
			t.Fatalf("%s: non-positive iteration time", row.Key)
		}
		if strings.HasSuffix(row.Key, "/speedup") {
			cells++
			if row.Sim <= 1 {
				t.Fatalf("%s: overlap speedup %.3fx, want > 1x", row.Key, row.Sim)
			}
		}
	}
	// Quick mode: 3 transports x EP {16} x ZeRO {0, 2} x buckets {0, 16 MB}.
	if cells != 3*1*2*2 {
		t.Fatalf("abl-zero ran %d cells, want 12", cells)
	}
	for _, tr := range []transport.Kind{transport.PFT, transport.Padded} {
		if s0, s2 := r.sim(tr, "/EP=16/zero=0/states"), r.sim(tr, "/EP=16/zero=2/states"); s2 >= s0 {
			t.Fatalf("%s: ZeRO-2 states %.2f GiB not below stage 0's %.2f GiB", tr, s2, s0)
		}
	}
}
