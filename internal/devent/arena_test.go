package devent

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"xmoe/internal/netsim"
	"xmoe/internal/topology"
)

// refQuery is one collective stated twice: as the engine call under test
// and as the reference lowering the parent commit made for it.
type refQuery struct {
	name  string
	kind  string
	ranks []int
	run   func(e *Engine) netsim.Cost
	ref   func(e *Engine) []refFlowSpec
}

func a2avQuery(name string, ranks []int, send [][]int64) refQuery {
	return refQuery{name, "alltoallv", ranks,
		func(e *Engine) netsim.Cost { return e.AlltoAllV(ranks, send) },
		func(*Engine) []refFlowSpec { return refAlltoAllV(ranks, send) }}
}

// unevenSend is a p x p matrix with ragged payloads, zeros sprinkled in, an
// all-zero row (rank 1 sends nothing) and a one-hot row (rank 2 sends to
// one peer only). No two rows drain in lockstep, so fair-share rates keep
// changing while flows are in flight.
func unevenSend(p int) [][]int64 {
	send := make([][]int64, p)
	for i := range send {
		send[i] = make([]int64, p)
		for j := range send[i] {
			send[i][j] = int64((i*7+j*3)%5)<<15 + int64((i*131+j*17)%1000)
		}
	}
	if p > 2 {
		clear(send[1])
		clear(send[2])
		send[2][p-1] = 3 << 16
	}
	return send
}

func evenSend(p int, b int64) [][]int64 {
	send := make([][]int64, p)
	for i := range send {
		send[i] = make([]int64, p)
		for j := range send[i] {
			if i != j {
				send[i][j] = b
			}
		}
	}
	return send
}

// refQueries covers every collective over the first n ranks: the shapes
// named in the arena-rewrite issue, plus single-rank and zero-payload
// degenerates.
func refQueries(n int) []refQuery {
	ranks := ranksOf(n)
	ragged := make([]int64, n)
	for i := range ragged {
		ragged[i] = int64(i%3) << 14
	}
	// Uneven node occupancy forces the flat-ring all-reduce on multi-node
	// graphs; on one node the ring is flat anyway.
	odd := ranks
	if n > 9 {
		odd = []int{0, 1, 2, 8, 9, n - 1}
	}
	allReduce := func(name string, ranks []int, bytes int64) refQuery {
		return refQuery{name, "allreduce", ranks,
			func(e *Engine) netsim.Cost { return e.AllReduce(ranks, bytes) },
			func(e *Engine) []refFlowSpec {
				if len(ranks) <= 1 || bytes == 0 {
					return nil
				}
				return e.refAllReduce(ranks, bytes)
			}}
	}
	return []refQuery{
		a2avQuery("a2av-uneven", ranks, unevenSend(n)),
		a2avQuery("a2a-even", ranks, evenSend(n, 1<<18)),
		a2avQuery("a2av-zero", ranks, evenSend(n, 0)),
		a2avQuery("a2av-p1", []int{n - 1}, [][]int64{{1 << 12}}),
		allReduce("allreduce", ranks, int64(n)<<16+5),
		allReduce("allreduce-odd-layout", odd, 1<<20+1),
		allReduce("allreduce-p1", ranks[:1], 1<<20),
		{"allgather-ragged", "allgather", ranks,
			func(e *Engine) netsim.Cost { return e.AllGather(ranks, ragged) },
			func(*Engine) []refFlowSpec {
				flows, _ := refRingPass(nil, ranks, ragged, nil)
				return flows
			}},
		{"reducescatter-remainder", "reducescatter", ranks,
			func(e *Engine) netsim.Cost { return e.ReduceScatter(ranks, int64(n)<<17+3) },
			func(*Engine) []refFlowSpec {
				flows, _ := refRingPass(nil, ranks, refRingShards(int64(n)<<17+3, n), nil)
				return flows
			}},
		{"broadcast", "broadcast", ranks,
			func(e *Engine) netsim.Cost { return e.Broadcast(ranks, 1<<21) },
			func(*Engine) []refFlowSpec { return refBroadcast(ranks, 1<<21) }},
		{"barrier", "barrier", ranks,
			func(e *Engine) netsim.Cost { return e.Barrier(ranks) },
			func(*Engine) []refFlowSpec { return refBarrier(ranks) }},
	}
}

// rackPerNode is Frontier with one node per rack, so that a few dozen
// ranks already cross rack spines (a Frontier rack holds 256 ranks). Its
// NoC routes between racks carry six trunks, the longest party key.
func rackPerNode() *topology.Machine {
	m := topology.Frontier()
	m.NodesPerRack = 1
	return m
}

func refGraphs() map[string]*topology.Graph {
	m, racks := topology.Frontier(), rackPerNode()
	return map[string]*topology.Graph{
		"flat":       topology.FlatGraph(topology.Flat(12), 12),
		"rail":       topology.RailGraph(m, 24, 0),
		"noc":        topology.NoCGraph(m, 24, 0),
		"rail-racks": topology.RailGraph(racks, 24, 0),
		"noc-racks":  topology.NoCGraph(racks, 24, 0),
	}
}

var refDerates = map[string]map[topology.LinkClass]float64{
	"healthy":     nil,
	"internode-2": {topology.LinkInterNode: 2},
}

// sameCost compares two costs bit for bit.
func sameCost(t *testing.T, what string, got, want netsim.Cost) {
	t.Helper()
	if math.Float64bits(got.Seconds) != math.Float64bits(want.Seconds) {
		t.Errorf("%s: Seconds %.17g, want %.17g", what, got.Seconds, want.Seconds)
	}
	if !reflect.DeepEqual(got.BytesByClass, want.BytesByClass) {
		t.Errorf("%s: BytesByClass %v, want %v", what, got.BytesByClass, want.BytesByClass)
	}
}

// recorded runs q with a recorder installed and returns its cost and log.
func recorded(t *testing.T, e *Engine, q refQuery) (netsim.Cost, CollectiveLog) {
	t.Helper()
	var logs []CollectiveLog
	e.SetRecorder(func(l CollectiveLog) { logs = append(logs, l) })
	defer e.SetRecorder(nil)
	c := q.run(e)
	switch len(logs) {
	case 0: // degenerate queries answer before anything is simulated
		return c, CollectiveLog{Kind: q.kind, Ranks: q.ranks}
	case 1:
		return c, logs[0]
	}
	t.Fatalf("%s: %d logs for one query", q.name, len(logs))
	return c, CollectiveLog{}
}

// matchesReference prices q on eng — through the memo (a miss, then a hit)
// and through the recorder — and compares each answer, and the event log,
// with the parent commit's lowering run by its map-based simulator.
func matchesReference(t *testing.T, what string, eng *Engine, derate map[topology.LinkClass]float64, q refQuery) {
	t.Helper()
	want, wantLog := eng.simulateRef(q.kind, q.ranks, q.ref(eng), derate, true)
	sameCost(t, what+" miss", q.run(eng), want)
	sameCost(t, what+" hit", q.run(eng), want)
	got, gotLog := recorded(t, eng, q)
	sameCost(t, what+" recorded", got, want)
	if !reflect.DeepEqual(gotLog, wantLog) {
		t.Errorf("%s: event log differs from the reference (%d vs %d events)",
			what, len(gotLog.Events), len(wantLog.Events))
	}
}

// The dense arena engine must reproduce the map-based simulator of the
// parent commit exactly: same Seconds bits, same byte totals, same event
// log.
func TestSimulateMatchesReference(t *testing.T) {
	for gname, g := range refGraphs() {
		for dname, derate := range refDerates {
			eng := New(g)
			eng.SetLinkDerate(derate)
			for _, q := range refQueries(g.NumRanks) {
				matchesReference(t, fmt.Sprintf("%s/%s/%s", gname, dname, q.name), eng, derate, q)
			}
		}
	}
}

// Water-filling runs over parties — active flows sharing a rate cap and a
// trunk list — and each party must stand for its members exactly.
//
// On the benchmark's 64-rank ragged all-to-all-v some pass must see fewer
// live parties than active flows, or the reference comparisons would pass
// on single-flow parties and say nothing about the grouping; there a party
// frozen as if it were one flow drifts from the reference. On the graphs
// the topology package builds, a trunk list implies its link class, so a
// party key without the cap would go unnoticed; the second graph keeps
// NoC routes built for GCD pairs of two but classifies flows by pairs of
// three, so ranks 0 → 2 (GCD pair, derated below intra-node) and 0 → 3
// (intra-node) share both crossbars at different caps.
func TestWaterFillingGroupsParties(t *testing.T) {
	var passes, grouped, flows, parties int
	onRecompute = func(f, p int) {
		passes++
		flows += f
		parties += p
		if p < f {
			grouped++
		}
	}
	defer func() { onRecompute = nil }()

	eng, ranks := railEngine(64)
	matchesReference(t, "rail64", eng, nil, a2avQuery("ragged", ranks, raggedSend(64)))
	if grouped == 0 {
		t.Errorf("none of %d water-filling passes saw fewer live parties than active flows", passes)
	}
	t.Logf("%d passes, %d grouped; mean %.1f active flows in %.1f live parties",
		passes, grouped, float64(flows)/float64(passes), float64(parties)/float64(passes))

	g := topology.NoCGraph(topology.Frontier(), 16, 0)
	g.M = topology.Frontier()
	g.M.GPUsPerPair = 3
	trunksOf := func(src, dst int) []topology.LinkID {
		var tr []topology.LinkID
		for _, id := range g.Route(src, dst, nil) {
			if g.Link(id).Shared {
				tr = append(tr, id)
			}
		}
		return tr
	}
	if !reflect.DeepEqual(trunksOf(0, 2), trunksOf(0, 3)) || g.M.Classify(0, 2) == g.M.Classify(0, 3) {
		t.Fatal("ranks 0 → 2 and 0 → 3 no longer share trunks at different link classes")
	}
	derate := map[topology.LinkClass]float64{topology.LinkGCDPair: 10}
	skew := New(g)
	skew.SetLinkDerate(derate)
	matchesReference(t, "skewed-classes", skew, derate, a2avQuery("uneven", ranksOf(16), unevenSend(16)))
}

// FuzzAlltoAllVMatchesReference drives the all-to-all-v, the one collective
// whose payload matrix is caller-shaped, with arbitrary byte counts
// (zeros included) on every graph kind, within a rack and across racks.
func FuzzAlltoAllVMatchesReference(f *testing.F) {
	m, racks := topology.Frontier(), rackPerNode()
	graphs := []*topology.Graph{
		topology.FlatGraph(topology.Flat(16), 16),
		topology.RailGraph(m, 16, 0),
		topology.NoCGraph(m, 16, 0),
		topology.RailGraph(racks, 24, 0),
		topology.NoCGraph(racks, 24, 0),
	}
	ng := uint8(len(graphs))
	for _, p := range []int{1, 2, 5, 16} {
		for _, send := range [][][]int64{unevenSend(p), evenSend(p, 1<<16), evenSend(p, 0)} {
			var raw []byte
			for _, row := range send {
				for _, b := range row {
					raw = append(raw, byte(b>>15))
				}
			}
			// Every graph healthy, then NoC and NoC across racks derated.
			for _, mode := range []uint8{0, 1, 2, 3, 4, ng + 2, ng + 4} {
				f.Add(uint8(p), mode, raw)
			}
		}
	}
	f.Fuzz(func(t *testing.T, pRaw, mode uint8, raw []byte) {
		p := int(pRaw-1)%16 + 1 // 1..16; the seeds pass p itself
		g := graphs[mode%ng]
		var derate map[topology.LinkClass]float64
		if (mode/ng)%2 == 1 {
			derate = map[topology.LinkClass]float64{topology.LinkInterNode: 2}
		}
		send := make([][]int64, p)
		for i := range send {
			send[i] = make([]int64, p)
			for j := range send[i] {
				if k := i*p + j; k < len(raw) {
					// Shifts from bytes to megabytes; one in four counts
					// is odd so flows do not finish in lockstep.
					send[i][j] = int64(raw[k]) << (raw[k] % 17)
					if raw[k]%4 == 1 {
						send[i][j] += int64(k)
					}
				}
			}
		}
		// Spread the ranks over the graph so inter-node pairs appear.
		ranks := make([]int, p)
		for i := range ranks {
			ranks[i] = i * (16 / p)
		}
		eng := New(g)
		eng.SetLinkDerate(derate)
		matchesReference(t, "fuzz", eng, derate, a2avQuery("fuzz", ranks, send))
	})
}

// A warm arena must not leak state from one query into the next: the same
// queries in two different orders on one engine, and from 8 goroutines at
// once (run under -race), equal each query on a fresh engine bit for bit.
func TestWarmArenaEqualsFreshEngine(t *testing.T) {
	g := topology.NoCGraph(topology.Frontier(), 24, 0)
	qs := refQueries(g.NumRanks)
	fresh := make([]netsim.Cost, len(qs))
	freshLog := make([]CollectiveLog, len(qs))
	for i, q := range qs {
		fresh[i], freshLog[i] = recorded(t, New(g), q)
	}

	// The recorder bypasses the memo, so every query below is simulated
	// in an arena the previous ones dirtied.
	warm := New(g)
	for _, order := range []func(i int) int{
		func(i int) int { return i },
		func(i int) int { return len(qs) - 1 - i },
	} {
		for i := range qs {
			k := order(i)
			got, gotLog := recorded(t, warm, qs[k])
			sameCost(t, qs[k].name+" warm", got, fresh[k])
			if !reflect.DeepEqual(gotLog, freshLog[k]) {
				t.Errorf("%s: warm-arena event log differs from a fresh engine's", qs[k].name)
			}
		}
	}

	// Concurrent misses each take their own arena off the free list: first
	// through the memo (misses racing hits), then with a recorder
	// installed, so that every query is simulated on an arena the first
	// pass left behind.
	shared := New(g)
	for _, rec := range []func(CollectiveLog){nil, func(CollectiveLog) {}} {
		shared.SetRecorder(rec)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range qs {
					k := (i + w) % len(qs)
					got := qs[k].run(shared)
					if math.Float64bits(got.Seconds) != math.Float64bits(fresh[k].Seconds) ||
						!reflect.DeepEqual(got.BytesByClass, fresh[k].BytesByClass) {
						t.Errorf("%s: concurrent query on a shared engine differs from a fresh engine", qs[k].name)
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// Logs handed to a recorder are copies: a log captured from one query must
// be unchanged after the arena that produced it has run another.
func TestRecorderLogSurvivesArenaReuse(t *testing.T) {
	eng := New(topology.RailGraph(topology.Frontier(), 16, 0))
	qs := refQueries(16)
	first, second := qs[0], qs[1]

	_, log1 := recorded(t, eng, first)
	ranks := first.ranks
	keep := CollectiveLog{
		Kind: log1.Kind, Seconds: log1.Seconds,
		Ranks:  append([]int(nil), log1.Ranks...),
		Events: append([]Event(nil), log1.Events...),
	}
	if len(keep.Events) == 0 {
		t.Fatal("first query recorded no events")
	}
	if &log1.Ranks[0] == &ranks[0] {
		t.Error("CollectiveLog.Ranks aliases the caller's rank slice")
	}
	_, log2 := recorded(t, eng, second)
	if len(log2.Events) == 0 {
		t.Fatal("second query recorded no events")
	}
	if !reflect.DeepEqual(log1, keep) {
		t.Error("a captured CollectiveLog changed when the engine ran its next query")
	}
}
