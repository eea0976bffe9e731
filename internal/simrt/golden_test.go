package simrt_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"xmoe/internal/devent"
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

// collectiveGolden is what TestCollectiveGoldenBits pins for one engine:
// every rank's final clock; FNV-64 hashes of every rank's clock after each
// step of the script, of every rank's trace events (charged and overlapped
// spans: name, Float64bits of start and duration) and of every payload the
// ranks received.
type collectiveGolden struct {
	clocks   [8]uint64
	trail    uint64
	events   uint64
	payloads uint64
}

func (g collectiveGolden) literal() string {
	return fmt.Sprintf("{clocks: [8]uint64{%#x, %#x, %#x, %#x, %#x, %#x, %#x, %#x}, trail: %#x, events: %#x, payloads: %#x}",
		g.clocks[0], g.clocks[1], g.clocks[2], g.clocks[3], g.clocks[4], g.clocks[5], g.clocks[6], g.clocks[7],
		g.trail, g.events, g.payloads)
}

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
// blocking, chunked and non-blocking variants of each kind.
func runCollectiveScript(t *testing.T, event bool) collectiveGolden {
	t.Helper()
	const n = 8
	m := goldenMachine()
	c := simrt.NewCluster(m, n, 7)
	if event {
		c.Engine = devent.New(topology.RailGraph(m, n, 0))
	}
	c.Inject = goldenInjector{"5/ar": 3.5e-5, "2/rs": 1.25e-5, "6/ag": 2e-6}
	g := c.WorldGroup()
	payload, trail := make([]uint64, n), make([]uint64, n)
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		h, clocks := fnv.New64a(), fnv.New64a()
		tick := func() { put(clocks, math.Float64bits(r.Clock)) }
		fold := func(parts ...simrt.Part) {
			for _, p := range parts {
				for _, v := range p.Data {
					h.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
				}
				put(h, uint64(p.Bytes))
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
		trail[r.ID] = clocks.Sum64()
		payload[r.ID] = h.Sum64()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got collectiveGolden
	ev, pl, tr := fnv.New64a(), fnv.New64a(), fnv.New64a()
	for i, r := range ranks {
		got.clocks[i] = math.Float64bits(r.Clock)
		for _, e := range r.Trace.Events() {
			ev.Write([]byte(e.Name))
			put(ev, math.Float64bits(e.Start))
			put(ev, math.Float64bits(e.Dur))
			if e.Overlap {
				ev.Write([]byte{1})
			}
		}
		put(pl, payload[i])
		put(tr, trail[i])
	}
	got.trail, got.events, got.payloads = tr.Sum64(), ev.Sum64(), pl.Sum64()
	return got
}

// put writes u to h little-endian.
func put(h hash.Hash, u uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, u)) }

// TestCollectiveGoldenBits pins the simulated clocks, the charged and
// overlapped trace spans and the delivered payloads of every collective on
// both cost engines, bit for bit. A mismatch is a change to the
// communication model and must be declared; the failure prints the literal
// only so it can be diffed.
func TestCollectiveGoldenBits(t *testing.T) {
	for _, engine := range []string{"analytic", "event"} {
		t.Run(engine, func(t *testing.T) {
			got := runCollectiveScript(t, engine == "event")
			if w := collectiveGoldens[engine]; got != w {
				t.Errorf("golden mismatch\n got: %q: %s,\nwant: %q: %s,", engine, got.literal(), engine, w.literal())
			}
		})
	}
}

var collectiveGoldens = map[string]collectiveGolden{
	"analytic": {clocks: [8]uint64{0x3f54523bc37c6d3d, 0x3f544e0a05943fc2, 0x3f5449d847ac1246, 0x3f5445a689c3e4cb, 0x3f544174cbdbb750, 0x3f543d430df389d4, 0x3f543911500b5c59, 0x3f5434df92232edd}, trail: 0xbbb2028e7319cd6b, events: 0xc407fa7cce401e3b, payloads: 0xba41ed59d9ec914e},
	"event":    {clocks: [8]uint64{0x3f5b316c0fbdc9c7, 0x3f5b2d3a51d59c4c, 0x3f5b290893ed6ed0, 0x3f5b24d6d6054155, 0x3f5b20a5181d13da, 0x3f5b1c735a34e65e, 0x3f5b18419c4cb8e3, 0x3f5b140fde648b67}, trail: 0x8b6c9dc6aa392f7d, events: 0x791578f522411548, payloads: 0xba41ed59d9ec914e},
}
