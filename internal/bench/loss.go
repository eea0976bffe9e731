package bench

import (
	"fmt"
	"io"

	"xmoe/internal/moe"
	"xmoe/internal/train"
)

// Figure15LossValidation regenerates Fig. 15: training-loss curves of the
// same MoE LM under DeepSpeed-MoE's drop-negative-score policy vs X-MoE's
// capacity-only dropping, on identical data and initialisation. The
// curves must closely track, with X-MoE's at or slightly below; the
// final-window gap is mean(DS loss) - mean(X-MoE loss) over the last fifth.
func Figure15LossValidation(w io.Writer, opts Options) []Row {
	iters := 500
	if opts.Quick {
		iters = 120
	}
	mkCfg := func(p moe.DropPolicy) train.LMConfig {
		cfg := train.DefaultLMConfig(p)
		cfg.Seed = opts.Seed
		// Tight capacity so the dropping policies actually diverge.
		cfg.MoE.CapacityFactor = 1.1
		return cfg
	}
	xs := train.Smooth(train.LossCurve(mkCfg(moe.DropByCapacityWeight), iters), 25)
	ds := train.Smooth(train.LossCurve(mkCfg(moe.DropNegativeThenPosition), iters), 25)

	var rows []Row
	point := func(at string, i int) {
		rows = append(rows, Row{at + "/DS-MoE", "loss", ds[i], 0}, Row{at + "/X-MoE", "loss", xs[i], 0})
	}
	step := max(iters/10, 1)
	for i := 0; i < iters; i += step {
		point(fmt.Sprint("iter=", i), i)
	}
	point("final", iters-1)
	window := iters / 5
	rows = append(rows, Row{"final-window gap", "loss", train.Mean(ds[iters-window:]) - train.Mean(xs[iters-window:]), 0})
	return render(w, "Figure 15: loss validation, DeepSpeed-MoE vs X-MoE dropping policies", rows,
		"paper: X-MoE tracks DS-MoE closely, slightly lower because capacity-only",
		"dropping retains more tokens per batch")
}
