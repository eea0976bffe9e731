package moe

import (
	"math"
	"slices"
	"sync"

	"xmoe/internal/simrt"
)

// Scratch is one set of the row-sized tables a layer call needs only while
// its exchange groups the layout's rows by token (RBD's Stage 0): the
// grouping table and the pilot list of the exchange, the rows of a
// symbolic layer's PFT, which a symbolic charge never reads once the
// groups are counted, and the selection buffer of the PFT's over-capacity
// segments. A set goes back to its pool when the grouping returns; no
// rendezvous falls between drawing it and returning it, so the pool holds
// about as many sets as goroutines group at once.
//
// Scratch sets and CallTables sets, which live for a whole layer call,
// come from process-wide pools rather than from a rank arena: the step
// simulator and the layer harnesses build a fresh cluster for every run,
// so a rank's arena never sees a second layer call. A garbage collection
// may drop what a pool holds; the next draw then allocates again.
type Scratch struct {
	tokens  []int
	weights []float32
	over    []float32
	table   []int32
	list    []int
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// grow returns s resized to n elements, reallocated when its capacity is
// short; the contents are unspecified.
func grow[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Table returns n cleared cells of sc's grouping table.
func (sc *Scratch) Table(n int) []int32 {
	sc.table = grow(sc.table, n)
	clear(sc.table)
	return sc.table
}

// List returns n cells of sc's list, with unspecified contents.
func (sc *Scratch) List(n int) []int {
	sc.list = grow(sc.list, n)
	return sc.list
}

// rows returns n token and weight cells for a PFT's rows, with unspecified
// contents.
func (sc *Scratch) rows(n int) ([]int, []float32) {
	sc.tokens, sc.weights = grow(sc.tokens, n), grow(sc.weights, n)
	return sc.tokens, sc.weights
}

// overflow returns n cells for the weights of one over-capacity segment,
// with unspecified contents.
func (sc *Scratch) overflow(n int) []float32 {
	sc.over = grow(sc.over, n)
	return sc.over
}

// drawScratch takes a set from the pool: for the rows of a symbolic layer's
// PFT (moe.Forward) or for a grouping of p's rows (PFT.Scratch).
func drawScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Scratch returns the set a layer's grouping of p's rows works in: the one
// p's rows live in (a symbolic layer whose exchange reads rows builds them
// there), else one drawn from the pool, which p holds from then on.
// ReleaseScratch ends its use.
func (p *PFT) Scratch() *Scratch {
	if p.scratch == nil {
		p.scratch = drawScratch()
	}
	return p.scratch
}

// ReleaseScratch returns the set p holds, if any, to the pool. If p's rows
// live in it, p drops them first and carries counts only from then on,
// like every symbolic layer's PFT. With simrt.PoisonReleased on, every
// table of the set is poisoned, so a read after the release fails instead
// of finding the old contents.
func (p *PFT) ReleaseScratch() {
	sc := p.scratch
	if sc == nil {
		return
	}
	if p.scratchRows {
		p.TokenIDs, p.CombineWeights = nil, nil
	}
	p.scratch, p.scratchRows = nil, false
	if simrt.PoisoningReleased() {
		poison(sc.tokens[:cap(sc.tokens)])
		poison(sc.weights[:cap(sc.weights)])
		poison(sc.over[:cap(sc.over)])
		poison(sc.table[:cap(sc.table)])
		poison(sc.list[:cap(sc.list)])
	}
	scratchPool.Put(sc)
}

// CallTables is one set of the index tables an exchange keeps for one
// layer call on one rank: its geometry, its part and exchange lists, and
// the metadata its peers read (RBD's Stage-1 and Stage-2 metadata). A set
// is drawn from a process-wide pool (see Scratch) when the call's forward
// starts (DrawCallTables) and released when the call ends: at the end of
// the backward, or of the forward when it saves nothing for one. Tables
// come from it with Table.
//
// A table a peer reads is released only after its owner has drained an
// exchange that every reader posts after its last read of it, so no view
// count is kept. What a peer still reads after the call's last exchange
// stays with the garbage collector.
type CallTables struct {
	slabs []slabber
}

// slabber is one typed backing of a CallTables set.
type slabber interface{ release(poisoning bool) }

// slab is the backing that Table cuts one element type's tables from, in
// the order a call asks for them; used cells are in use by the call.
type slab[T any] struct {
	buf  []T
	used int
}

var tablesPool = sync.Pool{New: func() any { return new(CallTables) }}

// DrawCallTables takes a set from the pool for one layer call's exchange.
func DrawCallTables() *CallTables { return tablesPool.Get().(*CallTables) }

// Table returns n zeroed cells of ct's T backing, which stay the caller's
// until ct is released. A backing too short for the call grows: the tables
// cut before keep the old one, and the next call's fit in the new one.
func Table[T any](ct *CallTables, n int) []T {
	var s *slab[T]
	for _, b := range ct.slabs {
		if b, ok := b.(*slab[T]); ok {
			s = b
			break
		}
	}
	if s == nil {
		s = new(slab[T])
		ct.slabs = append(ct.slabs, s)
	}
	if s.used+n > len(s.buf) {
		s.buf = grow(s.buf, s.used+n)
		s.buf = s.buf[:cap(s.buf)]
	}
	t := s.buf[s.used : s.used+n : s.used+n]
	s.used += n
	clear(t)
	return t
}

// Release returns ct to the pool: no table cut from it may be read again,
// by its rank or by a peer. With simrt.PoisonReleased on, every cell is
// poisoned first, so a read after the release fails instead of finding
// the old contents.
func (ct *CallTables) Release() {
	poisoning := simrt.PoisoningReleased()
	for _, s := range ct.slabs {
		s.release(poisoning)
	}
	tablesPool.Put(ct)
}

// release ends the call's use of s. Cells of a type that holds references
// (views, parts, exchanges) are cleared even when not poisoning, so a
// pooled set keeps no other call's memory alive.
func (s *slab[T]) release(poisoning bool) {
	used := s.buf[:s.used]
	switch any(used).(type) {
	case []int, []int32, []float32:
		if poisoning {
			poison(used)
		}
	default:
		clear(used)
	}
	s.used = 0
}

// poison fills s with values no reader can use: indices far out of range,
// NaN weights, and the zero value of any other type (nil views, no
// exchange).
func poison[T any](s []T) {
	switch c := any(s).(type) {
	case []int:
		fill(c, math.MinInt)
	case []int32:
		fill(c, math.MinInt32)
	case []float32:
		fill(c, float32(math.NaN()))
	default:
		clear(s)
	}
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}
