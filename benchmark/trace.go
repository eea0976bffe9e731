package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// A span is one call the benchmark made into a layer of the simulator,
// timed from outside: the benchmark's own clock around its own call.
// Spans of one operation share op; parent is the index of the span that
// was open on the same thread when this one began (-1 for a root).
type span struct {
	name       string
	start, end time.Duration // since tracer.t0
	parent     int
	op         int
	tid        int // driverTID, engineTID, or r+1 for simulated rank r
}

const (
	driverTID = 0
	engineTID = 100000
)

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off state: every method is a no-op, so the end-to-end pass pays
// one nil check per adapter call and nothing else.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	op    int
	// open[tid] is the innermost open span of that thread.
	open map[int]int
	// counts are taken at the same boundaries as the spans.
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[int]int{}, counts: map[string]float64{}}
}

// setOp stamps the operation id onto every span begun from now on.
func (t *tracer) setOp(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = i
	t.mu.Unlock()
}

// begin opens a span on thread tid and returns the function that closes
// it. Spans of one thread must nest (the benchmark's always do: they wrap
// function calls). A rank thread's outermost span hangs under the driver
// span that launched the ranks.
func (t *tracer) begin(name string, tid int) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	prev, nested := t.open[tid]
	parent := prev
	if !nested {
		parent = t.driverSpan(tid)
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, op: t.op, tid: tid})
	t.open[tid] = id
	t.mu.Unlock()
	return func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans[id].end = end
		if nested {
			t.open[tid] = prev
		} else {
			delete(t.open, tid)
		}
		t.mu.Unlock()
	}
}

// driverSpan is the parent of a span that has none on its own thread: the
// driver's innermost open span, or -1 on the driver itself.
func (t *tracer) driverSpan(tid int) int {
	if p, ok := t.open[driverTID]; ok && tid != driverTID {
		return p
	}
	return -1
}

// leaf records a finished span that opens nothing: cost-engine queries,
// which run on whichever rank goroutine completes a rendezvous and may
// run concurrently, so they cannot take part in per-thread nesting.
func (t *tracer) leaf(name string, tid int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s := start.Sub(t.t0)
	t.spans = append(t.spans, span{name: name, start: s, end: s + d, parent: t.driverSpan(tid), op: t.op, tid: tid})
	t.mu.Unlock()
}

// count adds v to a named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// counter reads a named counter.
func (t *tracer) counter(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// snapshotCounts copies the counters.
func (t *tracer) snapshotCounts() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is the span time minus the part of it that child spans
	// cover (children on parallel threads can overlap each other, so the
	// covered part is the union of their intervals, not their sum).
	SelfMs float64 `json:"self_ms"`
}

// layerTable aggregates spans by name with self time.
func (t *tracer) layerTable() []layerRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]time.Duration)
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	byName := map[string]*layerRow{}
	for id, s := range t.spans {
		row := byName[s.name]
		if row == nil {
			row = &layerRow{Name: s.name}
			byName[s.name] = row
		}
		dur := s.end - s.start
		row.Calls++
		row.TotalMs += ms(dur)
		row.SelfMs += ms(dur - covered(children[id], s.start, s.end))
	}
	rows := make([]layerRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMs > rows[j].SelfMs })
	return rows
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	cur := lo
	for _, x := range iv {
		a, b := x[0], x[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), which Perfetto and
// chrome://tracing open directly.
func (t *tracer) writeChromeTrace(w io.Writer, process string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans)+1)
	events = append(events, event{Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": process}})
	for id, s := range t.spans {
		events = append(events, event{Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"op": s.op, "span": id, "parent": s.parent}})
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// writeLayerTable prints the per-layer table as text.
func writeLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f\n", r.Name, r.Calls, r.TotalMs, r.SelfMs)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
