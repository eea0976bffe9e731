package bench

import (
	"io"
	"testing"

	"xmoe/internal/transport"
)

// TestAblationZeROOverlapWins pins the tentpole's acceptance criterion at
// the ablation level: for both transports, the bucketed overlapped
// gradient sync beats the blocking tail, and ZeRO-2 shrinks the per-rank
// model states.
func TestAblationZeROOverlapWins(t *testing.T) {
	points := AblationZeRO(io.Discard, quickOpts())
	if len(points) == 0 {
		t.Fatal("abl-zero produced no points")
	}
	stage2 := map[transport.Kind]bool{}
	statesByStage := map[transport.Kind]map[int]float64{}
	for _, p := range points {
		if p.BlockingSec <= 0 || p.OverlapSec <= 0 {
			t.Fatalf("%s EP=%d zero=%d: non-positive iteration time", p.Transport, p.EP, p.Stage)
		}
		if p.Speedup <= 1 {
			t.Fatalf("%s EP=%d zero=%d bucket=%dMB: overlap speedup %.3fx, want > 1x",
				p.Transport, p.EP, p.Stage, p.BucketMB, p.Speedup)
		}
		if p.Stage == 2 {
			stage2[p.Transport] = true
		}
		if statesByStage[p.Transport] == nil {
			statesByStage[p.Transport] = map[int]float64{}
		}
		statesByStage[p.Transport][p.Stage] = p.StatesGB
	}
	for _, tr := range []transport.Kind{transport.PFT, transport.Padded} {
		if !stage2[tr] {
			t.Fatalf("no stage-2 point for transport %s", tr)
		}
		if statesByStage[tr][2] >= statesByStage[tr][0] {
			t.Fatalf("%s: ZeRO-2 states %.2f GiB not below stage 0's %.2f GiB",
				tr, statesByStage[tr][2], statesByStage[tr][0])
		}
	}
}
