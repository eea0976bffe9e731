// Package trace records named, timestamped durations from the simulated
// ranks. The per-stage breakdowns in the paper's analysis figures (Fig. 11
// MoE layer breakdown, Fig. 12 dispatch breakdown) are produced by
// aggregating these events.
package trace

import (
	"sort"
	"sync"
)

// Event is one recorded span on a rank's virtual timeline.
type Event struct {
	// Name identifies the pipeline stage (e.g. "gate", "dispatch_a2a").
	Name string
	// Start is the virtual time at which the span began, in seconds.
	Start float64
	// Dur is the span's duration in seconds.
	Dur float64
	// Overlap marks a span that ran concurrently with the rank's compute
	// (an in-flight non-blocking collective). Overlapped spans describe
	// where the communication physically was on the timeline; the clock
	// charge they caused is recorded separately as a regular span holding
	// only the uncovered remainder, so Breakdown sums (which must add up
	// to wall-clock time) skip them.
	Overlap bool
	// Mark flags an instantaneous (zero-duration) annotation on the
	// timeline — a fault injection, a checkpoint commit, a recovery
	// boundary. Marks carry no time, so Breakdown/ChargedTotal/Total skip
	// them entirely (no zero-valued keys polluting per-stage tables); use
	// Marks to inspect them.
	Mark bool
}

// Recorder accumulates events. It is safe for concurrent use. The zero
// value is a valid, enabled recorder.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Record appends an event.
func (r *Recorder) Record(name string, start, dur float64) {
	r.mu.Lock()
	r.events = append(r.events, Event{Name: name, Start: start, Dur: dur})
	r.mu.Unlock()
}

// RecordOverlapped appends an overlapped span: a non-blocking collective
// that was in flight from start for dur seconds while the rank kept
// computing. Overlapped spans are excluded from Breakdown/Total (the
// uncovered clock charge is recorded separately by the waiter); use
// OverlappedTotal/OverlapBreakdown to inspect them.
func (r *Recorder) RecordOverlapped(name string, start, dur float64) {
	r.mu.Lock()
	r.events = append(r.events, Event{Name: name, Start: start, Dur: dur, Overlap: true})
	r.mu.Unlock()
}

// Mark appends an instantaneous event at virtual time at: a zero-duration
// annotation (fault injection, checkpoint, recovery boundary) that shares
// the timeline with spans but never contributes to Breakdown, Total, or
// ChargedTotal — those keep summing to wall-clock time exactly as before.
func (r *Recorder) Mark(name string, at float64) {
	r.mu.Lock()
	r.events = append(r.events, Event{Name: name, Start: at, Mark: true})
	r.mu.Unlock()
}

// Marks returns a copy of the instantaneous events in insertion order.
func (r *Recorder) Marks() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if e.Mark {
			out = append(out, e)
		}
	}
	return out
}

// MarkCount returns the number of marks with the given name.
func (r *Recorder) MarkCount(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Mark && e.Name == name {
			n++
		}
	}
	return n
}

// Events returns a copy of all recorded events in insertion order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Total returns the summed duration of all clock-charged (non-overlapped)
// events with the given name.
func (r *Recorder) Total(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t float64
	for _, e := range r.events {
		if e.Name == name && !e.Overlap && !e.Mark {
			t += e.Dur
		}
	}
	return t
}

// OverlappedTotal returns the summed duration of the overlapped spans with
// the given name: the full in-flight time of non-blocking collectives,
// regardless of how much of it was hidden behind compute. The hidden
// portion is OverlappedTotal(name) - Total(name) when the waiter records
// the uncovered remainder under the same name.
func (r *Recorder) OverlappedTotal(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t float64
	for _, e := range r.events {
		if e.Name == name && e.Overlap {
			t += e.Dur
		}
	}
	return t
}

// ChargedTotal returns the summed duration of every clock-charged
// (non-overlapped) span: by construction the rank's wall-clock time when
// all clock advances were recorded, which the overlapped-trainer tests
// use to assert that per-stage breakdowns still sum to wall-clock even
// with in-flight collectives present.
func (r *Recorder) ChargedTotal() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t float64
	for _, e := range r.events {
		if !e.Overlap && !e.Mark {
			t += e.Dur
		}
	}
	return t
}

// Breakdown returns the summed duration per event name over clock-charged
// spans only, so the values add up to the rank's wall-clock time even when
// overlapped collectives are present.
func (r *Recorder) Breakdown() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]float64{}
	for _, e := range r.events {
		if !e.Overlap && !e.Mark {
			out[e.Name] += e.Dur
		}
	}
	return out
}

// OverlapBreakdown returns the summed duration per event name over
// overlapped spans only.
func (r *Recorder) OverlapBreakdown() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]float64{}
	for _, e := range r.events {
		if e.Overlap {
			out[e.Name] += e.Dur
		}
	}
	return out
}

// Names returns the distinct event names in sorted order.
func (r *Recorder) Names() []string {
	b := r.Breakdown()
	names := make([]string, 0, len(b))
	for n := range b {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Merge sums the breakdowns of several recorders, averaging over n
// recorders if avg is true. Used to aggregate per-rank traces into the
// per-stage times the paper plots.
func Merge(recorders []*Recorder, avg bool) map[string]float64 {
	out := map[string]float64{}
	for _, r := range recorders {
		for name, d := range r.Breakdown() {
			out[name] += d
		}
	}
	if avg && len(recorders) > 0 {
		inv := 1 / float64(len(recorders))
		for name := range out {
			out[name] *= inv
		}
	}
	return out
}

// MergeMaps is Merge over already-materialised breakdown maps — used
// when a caller snapshots Breakdown() mid-run (e.g. the forward-only
// slice of a fwd+bwd trace) and aggregates the snapshots afterwards.
func MergeMaps(maps []map[string]float64, avg bool) map[string]float64 {
	out := map[string]float64{}
	for _, m := range maps {
		for name, d := range m {
			out[name] += d
		}
	}
	if avg && len(maps) > 0 {
		inv := 1 / float64(len(maps))
		for name := range out {
			out[name] *= inv
		}
	}
	return out
}
