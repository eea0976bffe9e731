package bench

import (
	"io"
	"math"
	"strings"
	"testing"

	"xmoe/internal/transport"
)

func quickOpts() Options { return Options{Seed: 42, Quick: true} }

func TestTable1SizeEquivalence(t *testing.T) {
	res := Table1SizeEquivalence(io.Discard)
	if res.ConvParams != res.SpecParams {
		t.Fatal("Mconv/Mspec must be size-equivalent")
	}
	if res.ConvActivated != res.SpecActivated {
		t.Fatal("activated params must match")
	}
	ratio := float64(res.SpecDispatch) / float64(res.ConvDispatch)
	if ratio < 7 || ratio > 9 {
		t.Fatalf("dispatch growth %.2f, want ~8 (m=8)", ratio)
	}
	if res.ConvInterm != res.SpecInterm {
		t.Fatal("intermediates must be constant across the pair")
	}
}

func TestFigure3BottleneckShift(t *testing.T) {
	res := Figure3MemoryDistribution(io.Discard)
	if res.Spec.ADispatch <= res.Spec.AInterm0 {
		t.Fatal("Mspec must be dispatch-dominated")
	}
	if res.Conv.ADispatch >= res.Conv.AInterm0 {
		t.Fatal("Mconv must be interm-dominated")
	}
}

func TestFigure4MatchesPaper(t *testing.T) {
	res := Figure4Redundancy(io.Discard, quickOpts())
	for i := range res.EPSizes {
		if math.Abs(res.Analytic[i]-res.Paper[i]) > 0.012 {
			t.Errorf("EP=%d analytic %.3f vs paper %.3f", res.EPSizes[i], res.Analytic[i], res.Paper[i])
		}
		if math.Abs(res.Measured[i]-res.Paper[i]) > 0.06 {
			t.Errorf("EP=%d measured %.3f vs paper %.3f", res.EPSizes[i], res.Measured[i], res.Paper[i])
		}
	}
}

func TestFigure9QuickShape(t *testing.T) {
	cells := Figure9MainResults(io.Discard, quickOpts())
	byName := map[string]Figure9Cell{}
	for _, c := range cells {
		byName[c.System] = c
	}
	x, tu, ds := byName["X-MoE"], byName["Tutel"], byName["DeepSpeed-MoE"]
	if x.OOM || tu.OOM || ds.OOM {
		t.Fatal("all systems must train the Small model on 256 GPUs")
	}
	if !(x.TFLOPs > tu.TFLOPs && tu.TFLOPs > ds.TFLOPs) {
		t.Fatalf("ordering violated: X-MoE %.1f, Tutel %.1f, DS %.1f",
			x.TFLOPs, tu.TFLOPs, ds.TFLOPs)
	}
	ratio := x.TFLOPs / tu.TFLOPs
	if ratio < 1.1 || ratio > 2.5 {
		t.Fatalf("X-MoE/Tutel ratio %.2f outside the plausible band around the paper's 1.33", ratio)
	}
}

func TestFigure10aWeakScalingShape(t *testing.T) {
	pts := Figure10aWeakScaling(io.Discard, quickOpts())
	for _, p := range pts {
		if p.XMoE <= p.Tutel {
			t.Fatalf("%d GPUs: X-MoE %.1f must beat Tutel %.1f", p.GPUs, p.XMoE, p.Tutel)
		}
	}
}

func TestFigure10bStrongScalingShape(t *testing.T) {
	pts := Figure10bStrongScaling(io.Discard, quickOpts())
	if len(pts) < 2 {
		t.Fatal("need at least two scaling points")
	}
	if !pts[0].TutelOOM {
		t.Error("Tutel should OOM at 128 GPUs on the Medium model (paper Fig. 10b)")
	}
	if pts[1].XMoE >= pts[0].XMoE {
		t.Errorf("X-MoE iteration time should fall 128->256 GPUs: %.2f -> %.2f",
			pts[0].XMoE, pts[1].XMoE)
	}
}

func TestFigure11BreakdownShape(t *testing.T) {
	res := Figure11LayerBreakdown(io.Discard, quickOpts())
	small := res[0]
	// Gate, dispatch and combine must be much faster under X-MoE.
	for _, st := range []string{"gate", "dispatch", "combine"} {
		if small.XMoE[st] >= small.DSMoE[st] {
			t.Errorf("stage %s: X-MoE %.4f should beat DS-MoE %.4f", st, small.XMoE[st], small.DSMoE[st])
		}
	}
	speedup := small.DSMoE["dispatch"] / small.XMoE["dispatch"]
	if speedup < 5 {
		t.Errorf("dispatch speedup %.1fx too small (paper 35.7x)", speedup)
	}
	var totalDS, totalX float64
	for _, v := range small.DSMoE {
		totalDS += v
	}
	for _, v := range small.XMoE {
		totalX += v
	}
	if totalX >= totalDS {
		t.Errorf("X-MoE layer total %.4f should beat DS-MoE %.4f", totalX, totalDS)
	}
}

func TestFigure12RBDShape(t *testing.T) {
	res := Figure12RBDBreakdown(io.Discard, quickOpts())
	if res.Speedup < 1.1 {
		t.Fatalf("RBD dispatch speedup %.2fx, want > 1.1 (paper 1.55x)", res.Speedup)
	}
	if math.Abs(res.MeasuredRedundancy-0.548) > 0.08 {
		t.Fatalf("measured redundancy %.3f, paper 0.548", res.MeasuredRedundancy)
	}
}

func TestTable4Ordering(t *testing.T) {
	res := Table4ActivationMemory(io.Discard)
	if !(res.DSMoE > res.Tutel && res.Tutel > res.XMoE && res.XMoE >= res.Theoretical) {
		t.Fatalf("Table 4 ordering violated: %.2f %.2f %.2f %.2f",
			res.DSMoE, res.Tutel, res.XMoE, res.Theoretical)
	}
}

func TestFigure13SavingGrowsWithTP(t *testing.T) {
	res := Figure13SSMBMemory(io.Discard)
	prevSaving := 0.0
	for i := range res.TP {
		saving := res.Without[i] - res.WithSSMB[i]
		if saving < prevSaving {
			t.Fatalf("SSMB saving must grow with TP: %v vs %v", res.WithSSMB, res.Without)
		}
		prevSaving = saving
	}
}

func TestFigure14SSMBWins(t *testing.T) {
	res := Figure14SSMBvsCkpt(io.Discard, quickOpts())
	if res.SSMBTFLOPs <= res.CkptTFLOPs {
		t.Fatalf("SSMB %.1f should beat checkpointing %.1f", res.SSMBTFLOPs, res.CkptTFLOPs)
	}
	ratio := res.SSMBTFLOPs / res.CkptTFLOPs
	if ratio < 1.1 || ratio > 2.6 {
		t.Errorf("SSMB/ckpt ratio %.2f far from paper's 1.47", ratio)
	}
}

func TestTable5CrossPlatform(t *testing.T) {
	rows := Table5CrossPlatform(io.Discard, quickOpts())
	full := rows[0]
	if full.DSMoE != 0 {
		t.Error("full Small model should OOM on DS-MoE at 8x A100-40GB")
	}
	// Known deviation: the paper also reports Tutel OOM on the full
	// config; our memory model places Tutel ~3 GiB under the 40 GB
	// limit, so it trains here (documented in EXPERIMENTS.md).
	if full.XMoE == 0 {
		t.Error("X-MoE should train the full Small model on 8x A100-40GB")
	}
	for _, r := range rows[1:] {
		if r.DSMoE == 0 || r.Tutel == 0 || r.XMoE == 0 {
			t.Errorf("%s: all systems should train the reduced configs", r.Model)
		}
	}
}

func TestFigure17Verdicts(t *testing.T) {
	res := Figure17AdvantageRegions(io.Discard)
	v := res.Verdicts[4096]
	names := res.Models
	for i, name := range names {
		switch name {
		case "DeepSeek-MoE", "DeepSeek-v3":
			if !v[i] {
				t.Errorf("%s should favour SSMB", name)
			}
		case "Mixtral-8x7b", "Mixtral-8x22b":
			if v[i] {
				t.Errorf("%s should favour TED", name)
			}
		}
	}
	// Arctic flips between S=2048 (TED) and S=8192 (SSMB).
	arctic := len(names) - 1
	if res.Verdicts[2048][arctic] || !res.Verdicts[8192][arctic] {
		t.Error("Arctic should flip from TED to SSMB as S grows")
	}
}

func TestFigure18ThreeRegimes(t *testing.T) {
	res := Figure18AlltoAllScaling(io.Discard, quickOpts())
	// Quick mode: 8, 64, 512 GPUs.
	if res[1].MeanSeconds <= res[0].MeanSeconds {
		t.Error("multi-node a2a should cost more than single-node")
	}
	if res[2].MeanSeconds <= res[1].MeanSeconds {
		t.Error("cross-rack a2a should cost more than single-rack")
	}
	if res[2].Outliers == 0 {
		t.Error("512-GPU a2a should show >500ms outliers (paper Fig. 18)")
	}
	if res[0].Outliers != 0 {
		t.Error("single-node a2a should have no outliers")
	}
}

func TestFigure15CurvesTrack(t *testing.T) {
	res := Figure15LossValidation(io.Discard, quickOpts())
	n := len(res.XMoE)
	if res.XMoE[n-1] >= res.XMoE[0] {
		t.Fatal("X-MoE loss should decrease")
	}
	if res.DSMoE[n-1] >= res.DSMoE[0] {
		t.Fatal("DS-MoE loss should decrease")
	}
	if math.Abs(res.FinalGap) > 0.5 {
		t.Fatalf("curves should track closely, final gap %.3f", res.FinalGap)
	}
}

func TestAppendixC1DPFirstWinsLargeMoE(t *testing.T) {
	res := AppendixC1Placement(io.Discard)
	if res.DPFirstSync >= res.EPFirstSync {
		t.Fatal("DP-first must cut gradient-sync time (replicas intra-node)")
	}
	if res.DPFirstA2A <= res.EPFirstA2A {
		t.Fatal("DP-first must pay more for EP token routing")
	}
	if res.DPFirstSync+res.DPFirstA2A >= res.EPFirstSync+res.EPFirstA2A {
		t.Fatal("for large MoEs (1 GiB grads) DP-first should win overall")
	}
}

func TestTablePrinter(t *testing.T) {
	var sb strings.Builder
	tb := newTable("a", "bb")
	tb.add("xxx", "y")
	tb.write(&sb)
	out := sb.String()
	if !strings.Contains(out, "xxx") || !strings.Contains(out, "bb") {
		t.Fatalf("table output malformed:\n%s", out)
	}
}

func TestAblationPilotSelectionRandomWins(t *testing.T) {
	res := AblationPilotSelection(io.Discard, quickOpts())
	if res.RandomA2A >= res.FirstExpertA2A {
		t.Fatalf("random pilots (%.4fs) should beat smallest-expert-ID (%.4fs)",
			res.RandomA2A, res.FirstExpertA2A)
	}
}

func TestAblationCapacityFactor(t *testing.T) {
	res := AblationCapacityFactor(io.Discard, quickOpts())
	// Dropping decreases monotonically as the factor grows; padded
	// memory grows monotonically.
	for i := 1; i < len(res.Factors); i++ {
		if res.DropFrac[i] > res.DropFrac[i-1] {
			t.Fatal("larger capacity cannot drop more tokens")
		}
		if res.MemGB[i] < res.MemGB[i-1] {
			t.Fatal("padded memory must grow with the capacity factor")
		}
	}
}

// TestAblationOverlapChunkedStrictlyFaster is the acceptance gate of the
// overlap subsystem: on the Fig. 11 configuration, every chunked variant
// (C >= 2) must be strictly faster than the blocking pipeline (C=1) for
// all three transports.
func TestAblationOverlapChunkedStrictlyFaster(t *testing.T) {
	results := AblationOverlap(io.Discard, quickOpts())
	if len(results) == 0 {
		t.Fatal("no overlap ablation points")
	}
	for _, res := range results {
		for i, chunks := range res.Chunks {
			if chunks == 1 {
				continue
			}
			if len(res.Kinds) != 3 {
				t.Fatalf("%s: expected three transports, got %v", res.Model, res.Kinds)
			}
			for k, kind := range res.Kinds {
				if ms := res.Ms[k]; ms[i] >= ms[0] {
					t.Errorf("%s %v C=%d: %.3fms not strictly faster than blocking %.3fms",
						res.Model, kind, chunks, ms[i], ms[0])
				}
			}
		}
	}
}

// TestAblationOverlapBackwardStrictlyFaster is the acceptance gate of the
// backward-pass overlap (PR-5 tentpole, extended to the native RBD
// backward): on the Fig. 11 configuration the full fwd+bwd step with both
// passes chunked must be strictly faster than the fully blocking step for
// every C >= 2, in all three transports, and must also beat the
// fwd-only-overlap step (the pre-backward-overlap state) — the backward
// is where the remaining hideable all-to-all time lives.
func TestAblationOverlapBackwardStrictlyFaster(t *testing.T) {
	results := AblationOverlapBackward(io.Discard, quickOpts())
	if len(results) != 3 {
		t.Fatalf("expected pft, padded, and rbd results, got %d", len(results))
	}
	seen := map[transport.Kind]bool{}
	for _, res := range results {
		seen[res.Pipeline] = true
	}
	if !seen[transport.RBD] {
		t.Fatal("abl-overlap-bwd is missing the rbd row")
	}
	for _, res := range results {
		for i, chunks := range res.Chunks {
			if chunks == 1 {
				continue
			}
			if res.FwdBwdMs[i] >= res.FwdBwdMs[0] {
				t.Errorf("%s C=%d: fwd+bwd %.3fms not strictly faster than blocking %.3fms",
					res.Pipeline, chunks, res.FwdBwdMs[i], res.FwdBwdMs[0])
			}
			if res.FwdBwdMs[i] >= res.FwdOnlyMs[i] {
				t.Errorf("%s C=%d: fwd+bwd %.3fms does not beat fwd-only overlap %.3fms",
					res.Pipeline, chunks, res.FwdBwdMs[i], res.FwdOnlyMs[i])
			}
		}
	}
}

func TestAblationRBDByEPSavingShrinks(t *testing.T) {
	res := AblationRBDByEPSize(io.Discard, quickOpts())
	if len(res.Saving) < 2 {
		t.Fatal("need at least two EP points")
	}
	if res.Saving[0] <= res.Saving[len(res.Saving)-1] {
		t.Fatalf("RBD saving should shrink as EP grows (redundancy falls): %v", res.Saving)
	}
	if res.Saving[0] < 0.2 {
		t.Fatalf("EP=16 saving %.2f too small (redundancy is 75%%)", res.Saving[0])
	}
}

// TestAblationFaultsShape is the acceptance gate of the fault-tolerance
// ablation: goodput must not improve as failures get more frequent, the
// checkpoint-interval sweep must peak away from both extremes (near the
// Young/Daly optimum), straggler slowdown must grow with the straggler's
// scale while staying at or below it (comm is unaffected), and the
// numeric trainer must come back from a real crash with an elastic
// shrink and all useful steps completed.
func TestAblationFaultsShape(t *testing.T) {
	res := AblationFaults(io.Discard, quickOpts())
	if len(res.StepSec) != 3 {
		t.Fatalf("expected 3 transports, got %d", len(res.StepSec))
	}
	for ti, tr := range res.Transports {
		g := res.Goodput[ti]
		if g[0] >= g[len(g)-1] {
			t.Errorf("%s: goodput at MTBF=%gx (%v) not below MTBF=%gx (%v)",
				tr, res.MTBFxStep[0], g[0], res.MTBFxStep[len(g)-1], g[len(g)-1])
		}
		for _, v := range g {
			if v <= 0 || v > 1 {
				t.Errorf("%s: goodput %v outside (0, 1]", tr, v)
			}
		}
	}
	// The interval sweep's best point must beat both extremes and sit
	// within a factor of 4 of the Young/Daly optimum.
	best, bestIv := 0.0, 0
	for i, g := range res.CkptGoodput {
		if g > best {
			best, bestIv = g, res.CkptSteps[i]
		}
	}
	if best <= res.CkptGoodput[0] || best <= res.CkptGoodput[len(res.CkptGoodput)-1] {
		t.Errorf("interval sweep should peak away from the extremes: %v", res.CkptGoodput)
	}
	if r := float64(bestIv) / res.YoungDalySteps; r < 0.25 || r > 4 {
		t.Errorf("best interval %d steps is far from Young/Daly optimum %.1f", bestIv, res.YoungDalySteps)
	}
	for ti, tr := range res.Transports {
		prev := 0.0
		for i, sc := range res.StragglerScale {
			slow := res.StragglerSlowdown[ti][i]
			if slow < prev-1e-9 {
				t.Errorf("%s: slowdown not monotone in straggler scale: %v", tr, res.StragglerSlowdown[ti])
			}
			if slow > sc*(1+1e-9) {
				t.Errorf("%s x%g: slowdown %.3f exceeds the compute scale itself", tr, sc, slow)
			}
			prev = slow
		}
		if last := res.StragglerSlowdown[ti][len(res.StragglerScale)-1]; last <= 1 {
			t.Errorf("%s: a 4x straggler must slow the step (got %.3fx)", tr, last)
		}
	}
	if res.FT.Recoveries != 1 || res.FT.FinalWorld >= 4 {
		t.Errorf("numeric trainer should have recovered once with a shrink: %+v", res.FT)
	}
	if res.FT.Goodput <= 0 || res.FT.Goodput >= 1 {
		t.Errorf("numeric trainer goodput %v outside (0, 1)", res.FT.Goodput)
	}
	// Async checkpointing dominates blocking at every MTBF point: the
	// write streams behind real steps instead of stalling them.
	for ti, tr := range res.Transports {
		for mi, mx := range res.MTBFxStep {
			if res.GoodputAsync[ti][mi] < res.Goodput[ti][mi]-1e-12 {
				t.Errorf("%s MTBF=%gx: async goodput %v below blocking %v",
					tr, mx, res.GoodputAsync[ti][mi], res.Goodput[ti][mi])
			}
		}
	}
	// Spare promotion: the pool restores the original world after the
	// crash and never hurts — useful tokens and goodput are monotone
	// non-decreasing in pool size, strictly better once a spare exists.
	for i, st := range res.SpareFT {
		total := st.UsefulTime + st.CkptTime + st.LostTime
		if d := total - st.WallClock; d > 1e-9*st.WallClock || d < -1e-9*st.WallClock {
			t.Errorf("spares=%d: wall %v != useful+ckpt+lost %v", res.SpareSizes[i], st.WallClock, total)
		}
		if i == 0 {
			continue
		}
		if st.UsefulTokens < res.SpareFT[i-1].UsefulTokens {
			t.Errorf("spares=%d: useful tokens %d below smaller pool's %d",
				res.SpareSizes[i], st.UsefulTokens, res.SpareFT[i-1].UsefulTokens)
		}
	}
	if res.SpareFT[0].FinalWorld >= 4 || res.SpareFT[1].FinalWorld != 4 || res.SpareFT[1].SparesUsed != 1 {
		t.Errorf("spare sweep worlds: no-spare %+v, one-spare %+v", res.SpareFT[0], res.SpareFT[1])
	}
	if res.SpareFT[1].UsefulTokens <= res.SpareFT[0].UsefulTokens {
		t.Errorf("regrow must beat shrink on useful tokens: %d vs %d",
			res.SpareFT[1].UsefulTokens, res.SpareFT[0].UsefulTokens)
	}
	// Mitigation: strictly faster under real stragglers (x >= 2), and
	// never catastrophically slower without one.
	for i, sc := range res.MitigationScale {
		if sc >= 2 && res.WallMitigated[i] >= res.WallUnmitigated[i] {
			t.Errorf("x%g: mitigated wall %v not below unmitigated %v",
				sc, res.WallMitigated[i], res.WallUnmitigated[i])
		}
	}
}
