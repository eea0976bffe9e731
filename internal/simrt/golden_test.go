package simrt_test

import (
	"fmt"
	"math"
	"testing"

	"xmoe/internal/devent"
	"xmoe/internal/golden"
	"xmoe/internal/simrt"
	"xmoe/internal/topology"
)

// goldenInjector charges one flaky-retry delay per (rank, collective name)
// and nothing else: no stragglers, no crashes.
type goldenInjector map[string]float64

func (goldenInjector) ComputeScale(int) float64 { return 1 }

func (g goldenInjector) CollectiveDelay(rank int, name string, _ float64) float64 {
	return g[fmt.Sprintf("%d/%s", rank, name)]
}

func (goldenInjector) CrashError(int, float64) error { return nil }

// goldenMachine is Frontier with four GCDs per node, so eight ranks span
// two nodes and every collective prices inter-node links too.
func goldenMachine() *topology.Machine {
	m := topology.Frontier()
	m.GPUsPerNode = 4
	return m
}

// runCollectiveScript drives one scripted sequence of every collective the
// pipelines and the ZeRO sync use on eight ranks: staggered entry clocks,
// an all-to-all-v still in flight when a blocking all-reduce is issued
// behind it on the comm stream, flaky-retry delays injected at entry, and
// blocking, chunked and non-blocking variants of each kind. It adds, under
// engine/: every rank's final clock; hashes of every rank's clock after
// each step of the script, of every rank's trace events (charged and
// overlapped spans) and of every payload the ranks received.
func runCollectiveScript(t *testing.T, engine string, got *golden.List) {
	t.Helper()
	const n = 8
	m := goldenMachine()
	c := simrt.NewCluster(m, n, 7)
	if engine == "event" {
		c.Engine = devent.New(topology.RailGraph(m, n, 0))
	}
	c.Inject = goldenInjector{"5/ar": 3.5e-5, "2/rs": 1.25e-5, "6/ag": 2e-6}
	g := c.WorldGroup()
	payload, trail := make([]uint64, n), make([]uint64, n)
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		h, clocks := golden.NewHash(), golden.NewHash()
		tick := func() { clocks.F64(r.Clock) }
		fold := func(parts ...simrt.Part) {
			for _, p := range parts {
				h.F32s(p.Data)
				h.U64(uint64(p.Bytes))
			}
		}
		vec := func(salt, k int) []float32 {
			out := make([]float32, k)
			for i := range out {
				out[i] = float32(math.Sin(float64(salt*977+r.ID*131+i))) * float32(1+r.ID)
			}
			return out
		}
		a2av := func(salt int) []simrt.Part {
			send := make([]simrt.Part, n)
			for j := range send {
				d := vec(salt+j, 1+(r.ID*3+j*5)%7)
				send[j] = simrt.Part{Data: d, Bytes: int64(len(d)) << 16}
			}
			return send
		}

		r.Compute("stagger", 1e-5*float64(1+(r.ID*5)%n))
		inflight := r.AlltoAllVAsync(g, "a2a_async", a2av(1))
		tick()
		r.Compute("gemm", 2e-6*float64(1+r.ID%3))
		sum := r.AllReduce(g, "ar", vec(2, 33), 33<<18) // drains the in-flight a2av
		tick()
		fold(simrt.Part{Data: sum})
		fold(inflight.Wait()...)
		tick()

		r.Compute("skew", 1e-6*float64(n-r.ID))
		fold(r.AllGather(g, "ag", simrt.Part{Data: vec(3, 1+r.ID), Bytes: int64(1+r.ID) << 17}, nil).Wait()...)
		tick()
		r.Compute("skew", 1e-6*float64(r.ID))
		r.Barrier(g)
		tick()

		rs := r.ReduceScatterAsync(g, "rs", vec(4, 29), 29<<18)
		ar := r.AllReduceAsync(g, "ar_async", vec(5, 17), 17<<19)
		r.Compute("bwd_gemm", 3e-5+1e-6*float64(r.ID))
		fold(ar.Wait()...)
		tick()
		fold(rs.Wait()...)
		tick()

		one := r.AlltoAllVChunk(g, "chunk1", a2av(6), nil, 1)
		tick()
		two := r.AlltoAllVChunk(g, "chunk2", a2av(7), nil, 2)
		r.Compute("expert_gemm", 1e-5)
		fold(one.Wait()...)
		fold(r.AlltoAllV(g, "a2a", a2av(8))...)
		tick()
		r.Compute("tail", 1e-6*float64(n-r.ID))
		fold(two.Wait()...)
		trail[r.ID] = clocks.Sum()
		payload[r.ID] = h.Sum()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ev, pl, tr := golden.NewHash(), golden.NewHash(), golden.NewHash()
	for i, r := range ranks {
		got.F64(fmt.Sprintf("%s/clock%d", engine, i), r.Clock)
		for _, e := range r.Trace.Events() {
			ev.Str(e.Name)
			ev.F64(e.Start)
			ev.F64(e.Dur)
			if e.Overlap {
				ev.U64(1)
			}
		}
		pl.U64(payload[i])
		tr.U64(trail[i])
	}
	got.U64(engine+"/trail", tr.Sum())
	got.U64(engine+"/events", ev.Sum())
	got.U64(engine+"/payloads", pl.Sum())
}

// TestCollectiveGoldenBits pins the simulated clocks, the charged and
// overlapped trace spans and the delivered payloads of every collective on
// both cost engines, bit for bit, to testdata/collectives.golden. A
// mismatch is a change to the communication model and must be declared.
func TestCollectiveGoldenBits(t *testing.T) {
	var got golden.List
	for _, engine := range []string{"analytic", "event"} {
		t.Run(engine, func(t *testing.T) { runCollectiveScript(t, engine, &got) })
	}
	golden.Check(t, "testdata/collectives.golden", got)
}
