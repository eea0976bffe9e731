package moe

import (
	"math"
	"slices"
	"sync"

	"xmoe/internal/simrt"
)

// Scratch is one set of the row-sized tables a layer call needs only while
// its exchange groups the layout's rows by token (RBD's Stage 0): the
// grouping table and the pilot list of the exchange, and the rows of a
// symbolic layer's PFT, which a symbolic charge never reads once the
// groups are counted. Sets come from one process-wide pool and go back
// when the grouping returns. A rank arena cannot hold them: the step
// simulator and the layer harnesses build a fresh cluster for every run,
// so a rank's arena never sees a second layer call. The grouping takes no
// rendezvous between drawing a set and returning it, so the pool holds
// about as many sets as goroutines group at once, and a garbage
// collection may drop what it holds.
type Scratch struct {
	tokens  []int
	weights []float32
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
// table of the set is filled with values no reader can use (indices far
// out of range, NaN weights), so a read after the release fails instead
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
		fill(sc.tokens[:cap(sc.tokens)], math.MinInt)
		fill(sc.weights[:cap(sc.weights)], float32(math.NaN()))
		fill(sc.table[:cap(sc.table)], math.MinInt32)
		fill(sc.list[:cap(sc.list)], math.MinInt)
	}
	scratchPool.Put(sc)
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}
