package main

// metricDef mirrors one entry of BENCHMARK.json; a test keeps the two in
// step. Bound is the share of the parent's median by which an end-to-end
// metric may get worse (per-layer metrics have none).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the simulator sees, host and sim kept
// apart: host_* / alloc* / peak_rss are what the simulator costs to run
// (noisy, medians of many ops); sim_step_ms, paper_err_pct and final_loss
// are what the modelled machine or the numeric trainer produces
// (deterministic for a seed). The driver takes spreads across seeds, so a
// bound is at least three times the seed-to-seed or run-to-run spread
// measured on the two-core sandbox (README.md has the table).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"host_ms_per_op", "ms", lower, 0.20},
	{"host_ms_per_op_p75", "ms", lower, 0.25},
	{"alloc_mb_per_op", "MB", lower, 0.03},
	{"allocs_per_op", "count", lower, 0.03},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"ok_share", "ratio", higher, 0.001},
	{"paper_err_pct", "%", lower, 0.15},
	{"sim_step_ms", "ms", lower, 0.02},
	{"final_loss", "loss", lower, 0.02},
}

// perLayer lists the ladder: T = mean duration of the span the benchmark
// records around its own call, C = count taken at the same boundary, P =
// isolated probe, R = read from a public result struct. A workload that
// never calls a layer reports 0 for its T, C and R entries.
var perLayer = []metricDef{
	// moe
	{Name: "moe.synthetic_routing_us_per_ktok", Unit: "us/ktok", Better: lower}, // P
	{Name: "moe.routed_pft_us_per_ktok", Unit: "us/ktok", Better: lower},        // P
	{Name: "moe.pft_fwdbwd_ms", Unit: "ms", Better: lower},                      // T
	{Name: "moe.padded_fwdbwd_ms", Unit: "ms", Better: lower},                   // T
	{Name: "moe.pft_allocs_per_op", Unit: "count", Better: lower},               // C
	{Name: "moe.sim_pft_ms", Unit: "ms", Better: lower},                         // R
	{Name: "moe.sim_padded_ms", Unit: "ms", Better: lower},                      // R
	{Name: "moe.sim_a2a_exposed_ms", Unit: "ms", Better: lower},                 // R
	{Name: "moe.sim_a2a_hidden_ms", Unit: "ms", Better: higher},                 // R
	{Name: "moe.overlap_efficiency", Unit: "ratio", Better: higher},             // R
	{Name: "moe.dropped_share", Unit: "ratio", Better: lower},                   // R
	// rbd
	{Name: "rbd.new_dispatcher_ms", Unit: "ms", Better: lower},   // T
	{Name: "rbd.fwd_ms", Unit: "ms", Better: lower},              // T
	{Name: "rbd.bwd_ms", Unit: "ms", Better: lower},              // T
	{Name: "rbd.sim_ms", Unit: "ms", Better: lower},              // R
	{Name: "rbd.sim_exposed_comm_ms", Unit: "ms", Better: lower}, // R
	{Name: "rbd.sim_hidden_comm_ms", Unit: "ms", Better: higher}, // R
	{Name: "rbd.sim_inter_node_mb", Unit: "MB", Better: lower},   // R
	{Name: "rbd.redundancy_rate", Unit: "ratio", Better: higher}, // R
	// simrt
	{Name: "simrt.new_cluster_ms", Unit: "ms", Better: lower},        // T
	{Name: "simrt.run_wall_ms", Unit: "ms", Better: lower},           // T
	{Name: "simrt.run_empty_us_per_rank", Unit: "us", Better: lower}, // P
	{Name: "simrt.a2av_rendezvous_us", Unit: "us", Better: lower},    // P
	// netsim
	{Name: "netsim.queries_per_op", Unit: "count", Better: lower},      // C
	{Name: "netsim.query_busy_ms_per_op", Unit: "ms", Better: lower},   // C
	{Name: "netsim.repeat_query_share", Unit: "ratio", Better: higher}, // C
	{Name: "netsim.a2av_hit_ns", Unit: "ns", Better: lower},            // P
	{Name: "netsim.a2av_miss_us", Unit: "us", Better: lower},           // P
	{Name: "netsim.allreduce_miss_ns", Unit: "ns", Better: lower},      // P
	// devent / topology
	{Name: "devent.queries_per_op", Unit: "count", Better: lower},       // C
	{Name: "devent.query_busy_ms_per_op", Unit: "ms", Better: lower},    // C
	{Name: "devent.allocs_per_query", Unit: "count", Better: lower},     // C
	{Name: "devent.a2av_miss_ms", Unit: "ms", Better: lower},            // P
	{Name: "devent.a2av_hit_us", Unit: "us", Better: lower},             // P
	{Name: "devent.allreduce_miss_ms", Unit: "ms", Better: lower},       // P
	{Name: "topology.rail_graph_ms", Unit: "ms", Better: lower},         // T
	{Name: "devent.sim_step_ms", Unit: "ms", Better: lower},             // R
	{Name: "devent.sim_congestion_delta_pct", Unit: "%", Better: lower}, // R
	// perfmodel
	{Name: "perfmodel.gemm_hit_ns", Unit: "ns", Better: lower},  // P
	{Name: "perfmodel.gemm_miss_ns", Unit: "ns", Better: lower}, // P
	// tensor / kernels
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: higher},      // P
	{Name: "tensor.matmul_t_gflops", Unit: "GFLOP/s", Better: higher},    // P
	{Name: "tensor.t_matmul_gflops", Unit: "GFLOP/s", Better: higher},    // P
	{Name: "tensor.gelu_ns_per_elem", Unit: "ns", Better: lower},         // P
	{Name: "tensor.randn_ns_per_elem", Unit: "ns", Better: lower},        // P
	{Name: "tensor.pool_get_put_ns", Unit: "ns", Better: lower},          // P
	{Name: "tensor.parallel_for_us", Unit: "us", Better: lower},          // P
	{Name: "kernels.gather_gb_s", Unit: "GB/s", Better: higher},          // P
	{Name: "kernels.scatter_combine_gb_s", Unit: "GB/s", Better: higher}, // P
	{Name: "kernels.seq_gemm_gflops", Unit: "GFLOP/s", Better: higher},   // P
	{Name: "kernels.group_by_dest_us", Unit: "us", Better: lower},        // P
	// zero / train
	{Name: "zero.sync_host_ms", Unit: "ms", Better: lower},           // P
	{Name: "train.step_ms_pft", Unit: "ms", Better: lower},           // T
	{Name: "train.step_ms_rbd", Unit: "ms", Better: lower},           // T
	{Name: "train.new_trainer_ms", Unit: "ms", Better: lower},        // T
	{Name: "train.checkpoint_ms", Unit: "ms", Better: lower},         // P
	{Name: "train.restore_ms", Unit: "ms", Better: lower},            // P
	{Name: "train.sim_step_ms", Unit: "ms", Better: lower},           // R
	{Name: "train.sim_comm_in_flight_ms", Unit: "ms", Better: lower}, // R
	{Name: "train.max_imbalance", Unit: "s", Better: lower},          // R
	// baselines
	{Name: "baselines.simulate_step_ms_xmoe", Unit: "ms", Better: lower},  // T
	{Name: "baselines.simulate_step_ms_tutel", Unit: "ms", Better: lower}, // T
	{Name: "baselines.max_micro_batch_us", Unit: "us", Better: lower},     // T
	{Name: "baselines.sim_tflops_xmoe", Unit: "TFLOP/s", Better: higher},  // R
	{Name: "baselines.sim_tflops_tutel", Unit: "TFLOP/s", Better: higher}, // R
	{Name: "baselines.sim_iter_s_xmoe", Unit: "s", Better: lower},         // R
	{Name: "baselines.sim_peak_mem_gb_xmoe", Unit: "GB", Better: lower},   // R
	{Name: "baselines.sim_layer_fwd_ms", Unit: "ms", Better: lower},       // R
	// bench: the figure rung
	{Name: "bench.fig10a_quick_s", Unit: "s", Better: lower}, // P
	{Name: "bench.fig11_quick_s", Unit: "s", Better: lower},  // P
	// host: the Go runtime beneath every module
	{Name: "host.gc_cycles_per_op", Unit: "count", Better: lower},
	{Name: "host.gc_pause_ms_per_op", Unit: "ms", Better: lower},
	{Name: "host.goroutines_peak", Unit: "count", Better: lower},
	{Name: "host.trace_overhead_pct", Unit: "%", Better: lower},
}

// spanMetrics maps a T metric to the span it is the mean duration of, and
// the factor from milliseconds to the metric's unit.
var spanMetrics = map[string]struct {
	span  string
	scale float64
}{
	"moe.pft_fwdbwd_ms":                {"moe.pft_fwdbwd", 1},
	"moe.padded_fwdbwd_ms":             {"moe.padded_fwdbwd", 1},
	"rbd.new_dispatcher_ms":            {"rbd.new_dispatcher", 1},
	"rbd.fwd_ms":                       {"rbd.fwd", 1},
	"rbd.bwd_ms":                       {"rbd.bwd", 1},
	"simrt.new_cluster_ms":             {"simrt.new_cluster", 1},
	"simrt.run_wall_ms":                {"simrt.run", 1},
	"topology.rail_graph_ms":           {"topology.rail_graph", 1},
	"train.step_ms_pft":                {"train.step_pft", 1},
	"train.step_ms_rbd":                {"train.step_rbd", 1},
	"train.new_trainer_ms":             {"train.new_trainer", 1},
	"baselines.simulate_step_ms_xmoe":  {"baselines.simulate_step_xmoe", 1},
	"baselines.simulate_step_ms_tutel": {"baselines.simulate_step_tutel", 1},
	"baselines.max_micro_batch_us":     {"baselines.max_micro_batch", 1e3},
}
