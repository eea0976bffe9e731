package train

import (
	"math"
	"testing"

	"xmoe/internal/memmodel"
	"xmoe/internal/zero"
)

// zeroConfig is distTrainerConfig plus ZeRO/momentum knobs.
func zeroConfig(transport string, stage int, bucketBytes int64, momentum float64) DistConfig {
	cfg := distTrainerConfig(transport, 1)
	cfg.ZeROStage = stage
	cfg.BucketBytes = bucketBytes
	cfg.Momentum = momentum
	return cfg
}

// runSteps trains a new trainer n steps under the given config and
// returns the loss trajectory and trainer.
func runSteps(t *testing.T, cfg DistConfig, n int) ([]float64, *DistTrainer) {
	t.Helper()
	tr, err := NewDistTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return trainSteps(t, tr, n), tr
}

// trainSteps runs n steps of tr and returns their losses.
func trainSteps(t *testing.T, tr *DistTrainer, n int) []float64 {
	t.Helper()
	losses := make([]float64, n)
	for i := range losses {
		stats, err := tr.Step()
		if err != nil {
			t.Fatal(err)
		}
		losses[i] = stats.Loss
	}
	return losses
}

// assertSameTraining asserts two trainers reached bit-identical state:
// loss trajectories, expert weights, and the dense bias on every rank.
func assertSameTraining(t *testing.T, label string, lossA, lossB []float64, a, b *DistTrainer) {
	t.Helper()
	for i := range lossA {
		if math.Float64bits(lossA[i]) != math.Float64bits(lossB[i]) {
			t.Fatalf("%s: step %d loss %v != %v", label, i, lossB[i], lossA[i])
		}
		// Equal bits on both sides are not enough when both read a
		// poisoned (NaN-filled) buffer.
		if math.IsNaN(lossA[i]) || math.IsInf(lossA[i], 0) {
			t.Fatalf("%s: step %d loss %v is not finite", label, i, lossA[i])
		}
	}
	weightsEqual(t, a, b, label)
}

// TestDistTrainerZeROBiasConsistentAcrossRanks pins the parameter
// all-gather: after sharded steps, every rank holds the identical dense
// parameter.
func TestDistTrainerZeROBiasConsistentAcrossRanks(t *testing.T) {
	_, tr := runSteps(t, zeroConfig("pft", 2, 16, 0.9), 3)
	for rank := 1; rank < tr.Cfg.World; rank++ {
		for j := range tr.bias[0] {
			if math.Float32bits(tr.bias[0][j]) != math.Float32bits(tr.bias[rank][j]) {
				t.Fatalf("bias[%d] differs between rank 0 and rank %d", j, rank)
			}
		}
	}
}

// TestDistTrainerZeROOverlapAccounting checks the satellite bugfix: the
// dense sync no longer blocks serially — the step records in-flight
// collective time, and the per-stage breakdown still sums to wall-clock.
func TestDistTrainerZeROOverlapAccounting(t *testing.T) {
	tr, err := NewDistTrainer(zeroConfig("pft", 2, 16, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Step()
	if err != nil {
		t.Fatal(err)
	}
	if stats.CommInFlight <= 0 {
		t.Fatal("async loss/gradient sync recorded no in-flight time")
	}
	if stats.MaxImbalance > 1e-9 {
		t.Fatalf("breakdown imbalance %.3e: clock advances escaped the trace", stats.MaxImbalance)
	}
	var sum float64
	for _, d := range stats.Breakdown {
		sum += d
	}
	if sum <= 0 || sum > stats.WallClock*(1+1e-9) {
		t.Fatalf("breakdown sums to %.9f, wall-clock %.9f", sum, stats.WallClock)
	}
}

// TestDistTrainerZeROCheckpointReshard trains under ZeRO-2 with small
// buckets, checkpoints mid-run, restores onto a stage-0 trainer (a
// different sharding geometry), and finishes: the result must be
// bit-identical to the uninterrupted stage-2 run — checkpoints are
// stage- and bucket-portable.
func TestDistTrainerZeROCheckpointReshard(t *testing.T) {
	const momentum = 0.9
	refLoss, refTr := runSteps(t, zeroConfig("pft", 2, 16, momentum), 4)

	tr, err := NewDistTrainer(zeroConfig("pft", 2, 16, momentum))
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	for i := 0; i < 2; i++ {
		stats, err := tr.Step()
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, stats.Loss)
	}
	ck := tr.Checkpoint()

	resharded, err := NewDistTrainer(zeroConfig("pft", 0, 0, momentum))
	if err != nil {
		t.Fatal(err)
	}
	if err := resharded.Restore(ck); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		stats, err := resharded.Step()
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, stats.Loss)
	}
	assertSameTraining(t, "ckpt-reshard", refLoss, losses, refTr, resharded)
}

// TestDistTrainerZeROShrinkReshards checks elastic recovery composes
// with sharded state: shrinking the world rebuilds the ownership
// partition and velocity shards at the new size, and a restored step
// runs cleanly.
func TestDistTrainerZeROShrinkReshards(t *testing.T) {
	tr, err := NewDistTrainer(zeroConfig("pft", 2, 16, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	ck := tr.Checkpoint()
	if err := tr.Resize(2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if got, want := len(tr.owned), 2; got != want {
		t.Fatalf("owned partition has %d members after shrink, want %d", got, want)
	}
	total := 0
	for _, ranges := range tr.owned {
		total += zero.OwnedCount(ranges)
	}
	if total != tr.Cfg.MoE.HModel {
		t.Fatalf("owned partition covers %d elements, want %d", total, tr.Cfg.MoE.HModel)
	}
	for rank := 0; rank < 2; rank++ {
		if got, want := len(tr.biasVel[rank]), zero.OwnedCount(tr.owned[rank]); got != want {
			t.Fatalf("rank %d velocity has %d elements, owns %d", rank, got, want)
		}
	}
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
}

// TestDistTrainerStateBytesMatchMemModel validates the memmodel ZeRO
// predictions against the trainer's actual buffers (the acceptance
// criterion: within 1%). The trainer's families map onto ZeROStates as
// expert weights with expert-DP 1 (pure EP: never sharded) plus the
// dense bias sharded over the world group, all fp32.
func TestDistTrainerStateBytesMatchMemModel(t *testing.T) {
	for _, momentum := range []float64{0, 0.9} {
		for _, stage := range []int{0, 1, 2} {
			for _, bucket := range []int64{0, 16} { // 16B = 4 elems: divides H=12 per bucket evenly over world 4
				cfg := zeroConfig("pft", stage, bucket, momentum)
				tr, err := NewDistTrainer(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tr.Step(); err != nil {
					t.Fatal(err)
				}
				h := int64(cfg.MoE.HModel)
				epr := cfg.MoE.NumExperts / cfg.World
				expertElems := int64(2 * epr * cfg.MoE.HModel * cfg.MoE.HFFN)
				var bytesOpt int64
				if momentum != 0 {
					bytesOpt = 4
				}
				expert := memmodel.ZeROStates(expertElems, 1, stage, 4, 4, bytesOpt)
				dense := memmodel.ZeROStates(h, cfg.World, stage, 4, 4, bytesOpt)
				want := expert.Add(dense)
				for rank := 0; rank < cfg.World; rank++ {
					params, grads, opt := tr.stateBytes(rank)
					got := memmodel.StateBytes{Params: params, Grads: grads, Opt: opt}
					for _, pair := range []struct {
						name      string
						got, want int64
					}{
						{"params", got.Params, want.Params},
						{"grads", got.Grads, want.Grads},
						{"opt", got.Opt, want.Opt},
					} {
						if !within1pct(pair.got, pair.want) {
							t.Fatalf("mom=%v stage=%d bucket=%d rank=%d: %s bytes %d, memmodel predicts %d",
								momentum, stage, bucket, rank, pair.name, pair.got, pair.want)
						}
					}
				}
			}
		}
	}
}

func within1pct(got, want int64) bool {
	if want == 0 {
		return got == 0
	}
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return float64(diff) <= 0.01*float64(want)
}

// stateBytes reports the persistent per-rank training-state footprint in
// bytes for one rank — parameters, owned gradient state, and optimizer
// (velocity) state — measured from the live buffers, the ground truth
// the memmodel ZeRO predictions are validated against. Gradient state
// counts the dense gradient elements this rank retains after sync (all H
// at stages 0/1, its owned shard at stage 2) plus the full rank-local
// expert gradients.
func (t *DistTrainer) stateBytes(rank int) (params, grads, opt int64) {
	h := int64(t.Cfg.MoE.HModel)
	expertElems := int64(0)
	for _, w := range t.params[rank].W1 {
		expertElems += int64(w.Len())
	}
	for _, w := range t.params[rank].W2 {
		expertElems += int64(w.Len())
	}
	params = 4 * (expertElems + h)
	denseGrad := h
	if t.zcfg.Stage >= 2 {
		denseGrad = int64(zero.OwnedCount(t.owned[rank]))
	}
	grads = 4 * (expertElems + denseGrad)
	if t.Cfg.Momentum != 0 {
		opt = 4 * expertElems // expert velocity, rank-local like the weights
		opt += 4 * int64(len(t.biasVel[rank]))
	}
	return params, grads, opt
}
