package bench

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xmoe/internal/golden"
	"xmoe/internal/transport"
)

func quickOpts() Options { return Options{Seed: 42, Quick: true} }

// quickRuns memoizes each experiment's quick-mode rows, so its shape
// checks, TestRowInvariants and TestExperimentRowsGolden share one run.
var quickRuns = map[string][]Row{}

// rowSet is one experiment's rows, looked up by key.
type rowSet struct {
	t     *testing.T
	list  []Row
	byKey map[string]Row
}

// quick returns the named experiment's quick-mode rows.
func quick(t *testing.T, name string) rowSet {
	t.Helper()
	rows, ok := quickRuns[name]
	for _, e := range Experiments {
		if e.Name == name && !ok {
			rows, ok = e.Run(io.Discard, quickOpts()), true
			quickRuns[name] = rows
		}
	}
	if !ok {
		t.Fatalf("no experiment %q", name)
	}
	s := rowSet{t, rows, map[string]Row{}}
	for _, r := range rows {
		s.byKey[r.Key] = r
	}
	return s
}

// row returns the row keyed fmt.Sprint(key...).
func (s rowSet) row(key ...any) Row {
	s.t.Helper()
	r, ok := s.byKey[fmt.Sprint(key...)]
	if !ok {
		s.t.Fatalf("no row %q", fmt.Sprint(key...))
	}
	return r
}

func (s rowSet) sim(key ...any) float64 {
	s.t.Helper()
	return s.row(key...).Sim
}

// goldenExperiments is every experiment but fig20, whose quick mode takes
// over a minute (70 s on two cores).
func goldenExperiments() []Experiment {
	var out []Experiment
	for _, e := range Experiments {
		if e.Name != "fig20" {
			out = append(out, e)
		}
	}
	return out
}

// TestExperimentRowsGolden pins every quick-mode row at seed 42, key and
// Float64bits of Sim and Paper in emitted order, to
// testdata/experiment_rows.golden. The rows were first pinned, one digest
// per experiment, from the commit before experiments returned rows, by a
// test-only adapter that mapped each of its result structs to these keys
// with the same expressions for derived values; fig12's and abl-rbd-ep's
// were re-recorded when their RBD stages moved from a dispatch-only
// harness into the layer body's run, which charges RBD's gather. A
// mismatch is a model change to declare, not a value to refresh.
func TestExperimentRowsGolden(t *testing.T) {
	var got golden.List
	for _, e := range goldenExperiments() {
		for _, r := range quick(t, e.Name).list {
			got.Add(e.Name+"/"+r.Key, fmt.Sprintf("sim=%016x paper=%016x", math.Float64bits(r.Sim), math.Float64bits(r.Paper)))
		}
	}
	golden.Check(t, "testdata/experiment_rows.golden", got)
}

// TestRowInvariants: a duplicate key silently overwrites in the tests'
// lookups, a unit outside formats cannot print, and a NaN or Inf (one 0/0)
// is no point a figure can plot, yet the table prints it without a word.
func TestRowInvariants(t *testing.T) {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, e := range goldenExperiments() {
		seen := map[string]bool{}
		for _, r := range quick(t, e.Name).list {
			if r.Key == "" || seen[r.Key] {
				t.Errorf("%s: empty or duplicate key %q", e.Name, r.Key)
			}
			seen[r.Key] = true
			if _, ok := formats[r.Unit]; !ok {
				t.Errorf("%s/%s: unit %q has no format", e.Name, r.Key, r.Unit)
			}
			if !finite(r.Sim) || !finite(r.Paper) {
				t.Errorf("%s/%s: sim %v, paper %v", e.Name, r.Key, r.Sim, r.Paper)
			}
		}
	}
}

func TestTable1SizeEquivalence(t *testing.T) {
	r := quick(t, "table1")
	if r.sim("expert params/layer/Mconv") != r.sim("expert params/layer/Mspec") {
		t.Fatal("Mconv/Mspec must be size-equivalent")
	}
	if r.sim("activated params/tok/Mconv") != r.sim("activated params/tok/Mspec") {
		t.Fatal("activated params must match")
	}
	if ratio := r.sim("A_dispatch/ratio"); ratio < 7 || ratio > 9 {
		t.Fatalf("dispatch growth %.2f, want ~8 (m=8)", ratio)
	}
	if r.sim("A_interm/Mconv") != r.sim("A_interm/Mspec") {
		t.Fatal("intermediates must be constant across the pair")
	}
}

func TestFigure3BottleneckShift(t *testing.T) {
	r := quick(t, "fig3")
	if r.sim("Mspec/A_dispatch") <= r.sim("Mspec/A0_interm") {
		t.Fatal("Mspec must be dispatch-dominated")
	}
	if r.sim("Mconv/A_dispatch") >= r.sim("Mconv/A0_interm") {
		t.Fatal("Mconv must be interm-dominated")
	}
}

func TestFigure4MatchesPaper(t *testing.T) {
	r := quick(t, "fig4")
	for _, ep := range []int{16, 32, 64, 128, 256} {
		measured := r.row("EP=", ep, "/measured")
		if a := r.sim("EP=", ep, "/analytic"); math.Abs(a-measured.Paper) > 1.2 {
			t.Errorf("EP=%d analytic %.1f%% vs paper %.1f%%", ep, a, measured.Paper)
		}
		if math.Abs(measured.Sim-measured.Paper) > 6 {
			t.Errorf("EP=%d measured %.1f%% vs paper %.1f%%", ep, measured.Sim, measured.Paper)
		}
	}
}

func TestFigure9QuickShape(t *testing.T) {
	r := quick(t, "fig9")
	x, tu, ds := r.sim("small/X-MoE"), r.sim("small/Tutel"), r.sim("small/DeepSpeed-MoE")
	if x == 0 || tu == 0 || ds == 0 {
		t.Fatal("all systems must train the Small model on 256 GPUs")
	}
	if !(x > tu && tu > ds) {
		t.Fatalf("ordering violated: X-MoE %.1f, Tutel %.1f, DS %.1f", x, tu, ds)
	}
	if ratio := x / tu; ratio < 1.1 || ratio > 2.5 {
		t.Fatalf("X-MoE/Tutel ratio %.2f outside the plausible band around the paper's 1.33", ratio)
	}
}

func TestFigure10aWeakScalingShape(t *testing.T) {
	r := quick(t, "fig10a")
	for _, g := range []int{16, 32} {
		if x, tu := r.sim("GPUs=", g, "/X-MoE"), r.sim("GPUs=", g, "/Tutel"); x <= tu {
			t.Fatalf("%d GPUs: X-MoE %.1f must beat Tutel %.1f", g, x, tu)
		}
	}
}

func TestFigure10bStrongScalingShape(t *testing.T) {
	r := quick(t, "fig10b")
	if r.sim("GPUs=128/Tutel") != 0 {
		t.Error("Tutel should OOM at 128 GPUs on the Medium model (paper Fig. 10b)")
	}
	if x128, x256 := r.sim("GPUs=128/X-MoE"), r.sim("GPUs=256/X-MoE"); x256 >= x128 {
		t.Errorf("X-MoE iteration time should fall 128->256 GPUs: %.2f -> %.2f", x128, x256)
	}
}

func TestFigure11BreakdownShape(t *testing.T) {
	r := quick(t, "fig11")
	// Gate, dispatch and combine must be much faster under X-MoE.
	for _, st := range []string{"gate", "dispatch", "combine"} {
		if x, ds := r.sim("small/", st, "/X-MoE"), r.sim("small/", st, "/DeepSpeed-MoE"); x >= ds {
			t.Errorf("stage %s: X-MoE %.4f should beat DS-MoE %.4f", st, x, ds)
		}
	}
	if speedup := r.sim("small/dispatch/speedup"); speedup < 5 {
		t.Errorf("dispatch speedup %.1fx too small (paper 35.7x)", speedup)
	}
	// The whole transformer layer: the MoE stages plus the attention block.
	layer := func(sys string) float64 {
		return r.sim("small/TOTAL/", sys) + r.sim("small/dense_gemm/", sys) + r.sim("small/dense_elemwise/", sys)
	}
	if x, ds := layer("X-MoE"), layer("DeepSpeed-MoE"); x >= ds {
		t.Errorf("X-MoE layer total %.4f should beat DS-MoE %.4f", x, ds)
	}
}

func TestFigure12RBDShape(t *testing.T) {
	r := quick(t, "fig12")
	if speedup := r.sim("dispatch speedup"); speedup < 1.1 {
		t.Fatalf("RBD dispatch speedup %.2fx, want > 1.1 (paper 1.55x)", speedup)
	}
	if red := r.row("measured redundancy"); math.Abs(red.Sim-red.Paper) > 8 {
		t.Fatalf("measured redundancy %.1f%%, paper %.1f%%", red.Sim, red.Paper)
	}
	// RBD's buffer instantiation is the body's gather of every routed copy
	// plus the pilot gather, so it cannot undercut PFT's gather alone.
	if pft, hier := r.sim(transport.PFT, "/buffer instantiation"), r.sim(transport.RBD, "/buffer instantiation"); hier <= pft {
		t.Fatalf("rbd buffer instantiation %.3fms does not exceed pft's %.3fms: the layer's gather is not charged", hier, pft)
	}
}

func TestTable4Ordering(t *testing.T) {
	r := quick(t, "table4")
	ds, tu, x, th := r.sim("DS-MoE"), r.sim("Tutel"), r.sim("X-MoE"), r.sim("theoretical")
	if !(ds > tu && tu > x && x >= th) {
		t.Fatalf("Table 4 ordering violated: %.2f %.2f %.2f %.2f", ds, tu, x, th)
	}
}

func TestFigure13SavingGrowsWithTP(t *testing.T) {
	r := quick(t, "fig13")
	prevSaving := 0.0
	for _, tp := range []int{1, 2, 4} {
		saving := r.sim("TP=", tp, "/w/o SSMB") - r.sim("TP=", tp, "/w/ SSMB")
		if saving < prevSaving {
			t.Fatalf("SSMB saving must grow with TP: %.2f GiB at TP=%d after %.2f", saving, tp, prevSaving)
		}
		prevSaving = saving
	}
}

func TestFigure14SSMBWins(t *testing.T) {
	r := quick(t, "fig14")
	ssmb, ckpt := r.sim("SSMB"), r.sim("act. ckpt")
	if ssmb <= ckpt {
		t.Fatalf("SSMB %.1f should beat checkpointing %.1f", ssmb, ckpt)
	}
	if ratio := ssmb / ckpt; ratio < 1.1 || ratio > 2.6 {
		t.Errorf("SSMB/ckpt ratio %.2f far from paper's 1.47", ratio)
	}
}

func TestTable5CrossPlatform(t *testing.T) {
	r := quick(t, "table5")
	if r.sim("small/DeepSpeed-MoE") != 0 {
		t.Error("full Small model should OOM on DS-MoE at 8x A100-40GB")
	}
	// Known deviation: the paper also reports Tutel OOM on the full
	// config; our memory model places Tutel ~3 GiB under the 40 GB
	// limit, so it trains here (README, "Known deviations").
	if r.sim("small/X-MoE") == 0 {
		t.Error("X-MoE should train the full Small model on 8x A100-40GB")
	}
	for _, m := range []string{"small-sr", "small-lr"} {
		for _, sys := range []string{"DeepSpeed-MoE", "Tutel", "X-MoE"} {
			if r.sim(m, "/", sys) == 0 {
				t.Errorf("%s/%s: all systems should train the reduced configs", m, sys)
			}
		}
	}
}

func TestFigure17Verdicts(t *testing.T) {
	r := quick(t, "fig17")
	for _, name := range []string{"DeepSeek-MoE", "DeepSeek-v3"} {
		if r.sim("S=4096/", name) != 1 {
			t.Errorf("%s should favour SSMB", name)
		}
	}
	for _, name := range []string{"Mixtral-8x7b", "Mixtral-8x22b"} {
		if r.sim("S=4096/", name) != 0 {
			t.Errorf("%s should favour TED", name)
		}
	}
	// Arctic flips between S=2048 (TED) and S=8192 (SSMB).
	if r.sim("S=2048/Arctic") != 0 || r.sim("S=8192/Arctic") != 1 {
		t.Error("Arctic should flip from TED to SSMB as S grows")
	}
}

func TestFigure18ThreeRegimes(t *testing.T) {
	r := quick(t, "fig18") // quick mode: 8, 64, 512 GPUs
	if r.sim("GPUs=64/mean") <= r.sim("GPUs=8/mean") {
		t.Error("multi-node a2a should cost more than single-node")
	}
	if r.sim("GPUs=512/mean") <= r.sim("GPUs=64/mean") {
		t.Error("cross-rack a2a should cost more than single-rack")
	}
	if r.sim("GPUs=512/outliers >500ms") == 0 {
		t.Error("512-GPU a2a should show >500ms outliers (paper Fig. 18)")
	}
	if r.sim("GPUs=8/outliers >500ms") != 0 {
		t.Error("single-node a2a should have no outliers")
	}
}

func TestFigure15CurvesTrack(t *testing.T) {
	r := quick(t, "fig15")
	for _, sys := range []string{"X-MoE", "DS-MoE"} {
		if r.sim("final/", sys) >= r.sim("iter=0/", sys) {
			t.Fatalf("%s loss should decrease", sys)
		}
	}
	if gap := r.sim("final-window gap"); math.Abs(gap) > 0.5 {
		t.Fatalf("curves should track closely, final gap %.3f", gap)
	}
}

func TestAppendixC1DPFirstWinsLargeMoE(t *testing.T) {
	r := quick(t, "appc1")
	if r.sim("dp-first/grad sync") >= r.sim("ep-first/grad sync") {
		t.Fatal("DP-first must cut gradient-sync time (replicas intra-node)")
	}
	if r.sim("dp-first/EP a2a") <= r.sim("ep-first/EP a2a") {
		t.Fatal("DP-first must pay more for EP token routing")
	}
	if r.sim("dp-first/total") >= r.sim("ep-first/total") {
		t.Fatal("for large MoEs (1 GiB grads) DP-first should win overall")
	}
}

func TestTablePrinter(t *testing.T) {
	var sb strings.Builder
	render(&sb, "title", []Row{{"xxx", "TFLOPs", 0, 1.5}, {"y", "x", 2, 0}}, "note")
	for _, want := range []string{"=== title ===", "paper", "xxx", "OOM", "1.5", "2.00", "note"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("table output lacks %q:\n%s", want, sb.String())
		}
	}
}

func TestAblationPilotSelectionRandomWins(t *testing.T) {
	r := quick(t, "abl-pilot")
	if random, first := r.sim("random (paper)"), r.sim("smallest expert ID"); random >= first {
		t.Fatalf("random pilots (%.4fms) should beat smallest-expert-ID (%.4fms)", random, first)
	}
}

func TestAblationCapacityFactor(t *testing.T) {
	r := quick(t, "abl-capacity")
	// Dropping decreases monotonically as the factor grows; padded
	// memory grows monotonically.
	factors := []float64{0.5, 1.0, 1.25, 2.0, 4.0}
	for i := 1; i < len(factors); i++ {
		if r.sim("factor=", factors[i], "/dropped") > r.sim("factor=", factors[i-1], "/dropped") {
			t.Fatal("larger capacity cannot drop more tokens")
		}
		if r.sim("factor=", factors[i], "/padded act") < r.sim("factor=", factors[i-1], "/padded act") {
			t.Fatal("padded memory must grow with the capacity factor")
		}
	}
}

// TestAblationOverlapChunkedStrictlyFaster is the acceptance gate of the
// overlap subsystem: on the Fig. 11 configuration, every chunked variant
// (C >= 2) must be strictly faster than the blocking pipeline (C=1) for
// all three transports.
func TestAblationOverlapChunkedStrictlyFaster(t *testing.T) {
	r := quick(t, "abl-overlap")
	for _, chunks := range []int{2, 4, 8} {
		for _, kind := range transport.Kinds() {
			if ms, blocking := r.sim("C=", chunks, "/", kind), r.sim("C=1/", kind); ms >= blocking {
				t.Errorf("%v C=%d: %.3fms not strictly faster than blocking %.3fms", kind, chunks, ms, blocking)
			}
		}
	}
}

// TestAblationOverlapBackwardStrictlyFaster is the acceptance gate of the
// backward-pass overlap (extended to the native RBD backward): on the
// Fig. 11 configuration the full fwd+bwd step with both passes chunked
// must be strictly faster than the fully blocking step for every C >= 2,
// in all three transports, and must also beat the fwd-only-overlap step —
// the backward is where the remaining hideable all-to-all time lives.
func TestAblationOverlapBackwardStrictlyFaster(t *testing.T) {
	r := quick(t, "abl-overlap-bwd")
	for _, kind := range transport.Kinds() {
		blocking := r.sim(kind, "/C=1/fwd+bwd")
		for _, chunks := range []int{2, 4, 8} {
			fwdBwd, fwdOnly := r.sim(kind, "/C=", chunks, "/fwd+bwd"), r.sim(kind, "/C=", chunks, "/fwd-only")
			if fwdBwd >= blocking {
				t.Errorf("%v C=%d: fwd+bwd %.3fms not strictly faster than blocking %.3fms", kind, chunks, fwdBwd, blocking)
			}
			if fwdBwd >= fwdOnly {
				t.Errorf("%v C=%d: fwd+bwd %.3fms does not beat fwd-only overlap %.3fms", kind, chunks, fwdBwd, fwdOnly)
			}
		}
	}
}

func TestAblationRBDByEPSavingShrinks(t *testing.T) {
	r := quick(t, "abl-rbd-ep")
	first, last := r.sim("EP=16/saving"), r.sim("EP=32/saving")
	if first <= last {
		t.Fatalf("RBD saving should shrink as EP grows (redundancy falls): %.1f%% -> %.1f%%", first, last)
	}
	if first < 20 {
		t.Fatalf("EP=16 saving %.1f%% too small (redundancy is 75%%)", first)
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
	r := quick(t, "abl-faults")
	for _, tr := range transport.Kinds() {
		if g0, g1 := r.sim("MTBF=20x/", tr), r.sim("MTBF=2500x/", tr); g0 >= g1 {
			t.Errorf("%s: goodput at MTBF=20x (%v) not below MTBF=2500x (%v)", tr, g0, g1)
		}
		for _, mx := range []float64{20, 100, 500, 2500} {
			g, async := r.sim("MTBF=", mx, "x/", tr), r.sim("MTBF=", mx, "x/", tr, "-async")
			if g <= 0 || g > 1 {
				t.Errorf("%s: goodput %v outside (0, 1]", tr, g)
			}
			// Async checkpointing dominates blocking at every MTBF point:
			// the write streams behind real steps instead of stalling them.
			if async < g-1e-12 {
				t.Errorf("%s MTBF=%gx: async goodput %v below blocking %v", tr, mx, async, g)
			}
		}
	}
	// The interval sweep's best point must beat both extremes and sit
	// within a factor of 4 of the Young/Daly optimum.
	best, bestIv := 0.0, 0
	for _, iv := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		if g := r.sim(transport.PFT, "/interval=", iv); g > best {
			best, bestIv = g, iv
		}
	}
	if best <= r.sim(transport.PFT, "/interval=1") || best <= r.sim(transport.PFT, "/interval=128") {
		t.Errorf("interval sweep should peak away from the extremes (best %v at %d)", best, bestIv)
	}
	if yd := r.sim(transport.PFT, "/Young-Daly interval"); float64(bestIv)/yd < 0.25 || float64(bestIv)/yd > 4 {
		t.Errorf("best interval %d steps is far from Young/Daly optimum %.1f", bestIv, yd)
	}
	for _, tr := range transport.Kinds() {
		prev := 0.0
		for _, sc := range []float64{1, 1.5, 2, 4} {
			slow := r.sim("straggler x", sc, "/", tr)
			if slow < prev-1e-9 {
				t.Errorf("%s x%g: slowdown %.3f below the milder straggler's %.3f", tr, sc, slow, prev)
			}
			if slow > sc*(1+1e-9) {
				t.Errorf("%s x%g: slowdown %.3f exceeds the compute scale itself", tr, sc, slow)
			}
			prev = slow
		}
		if prev <= 1 {
			t.Errorf("%s: a 4x straggler must slow the step (got %.3fx)", tr, prev)
		}
	}
	if r.sim("trainer/recoveries") != 1 || r.sim("trainer/final world") >= 4 {
		t.Errorf("numeric trainer should have recovered once with a shrink: %v recoveries, world %v",
			r.sim("trainer/recoveries"), r.sim("trainer/final world"))
	}
	if g := r.sim("trainer/goodput"); g <= 0 || g >= 1 {
		t.Errorf("numeric trainer goodput %v outside (0, 1)", g)
	}
	// Spare promotion: the pool restores the original world after the
	// crash and never hurts — useful tokens are monotone non-decreasing in
	// pool size, strictly better once a spare exists.
	for sp := 0; sp <= 2; sp++ {
		key := fmt.Sprint("spares=", sp, "/")
		wall, total := r.sim(key+"wall"), r.sim(key+"useful")+r.sim(key+"ckpt")+r.sim(key+"lost")
		if math.Abs(total-wall) > 1e-9*wall {
			t.Errorf("spares=%d: wall %v != useful+ckpt+lost %v", sp, wall, total)
		}
		if sp > 0 && r.sim(key+"useful tokens") < r.sim("spares=", sp-1, "/useful tokens") {
			t.Errorf("spares=%d: useful tokens below the smaller pool's", sp)
		}
	}
	if r.sim("spares=0/final world") >= 4 || r.sim("spares=1/final world") != 4 || r.sim("spares=1/promoted spares") != 1 {
		t.Errorf("spare sweep: no-spare world %v, one-spare world %v with %v promoted", r.sim("spares=0/final world"),
			r.sim("spares=1/final world"), r.sim("spares=1/promoted spares"))
	}
	if r.sim("spares=1/useful tokens") <= r.sim("spares=0/useful tokens") {
		t.Error("regrow must beat shrink on useful tokens")
	}
	// Mitigation: strictly faster under real stragglers (x >= 2).
	for _, sc := range []float64{2, 4} {
		if on, off := r.sim(transport.PFT, "/rebalance x", sc, "/on"), r.sim(transport.PFT, "/rebalance x", sc, "/off"); on >= off {
			t.Errorf("x%g: mitigated wall %v not below unmitigated %v", sc, on, off)
		}
	}
}

// TestOptionReadersAreRegistered: every key of OptionReaders names an
// Options field and every reader is a registered experiment, so a rename
// cannot leave the CLI rejecting a flag that experiment reads.
func TestOptionReadersAreRegistered(t *testing.T) {
	for flag, readers := range OptionReaders {
		field := strings.ToUpper(flag[:1]) + flag[1:]
		if _, ok := reflect.TypeOf(Options{}).FieldByName(field); !ok {
			t.Errorf("OptionReaders names %q, which is no Options field", field)
		}
		for _, name := range readers {
			if !slices.ContainsFunc(Experiments, func(e Experiment) bool { return e.Name == name }) {
				t.Errorf("OptionReaders[%q] names %q, which is no registered experiment", flag, name)
			}
		}
	}
}
