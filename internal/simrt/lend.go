package simrt

import (
	"math"
	"sync/atomic"

	"xmoe/internal/tensor"
)

// A send buffer whose views cross an exchange is lent, not allocated
// fresh: the sender draws it from its rank arena with Lend, slices it into
// the parts it sends, and names the loan when it issues the exchange
// (AlltoAllVChunk, AllGather). Every delivered part that carries data is
// one view of the loan, counted when the sender deposits; each receiver
// drops its views with Exchange.Release once it has read them for the
// last time — right after landing them, or after its last in-place read
// — and the sender drops its own hold with Done once it has issued every
// exchange the buffer feeds. The last of these returns the buffer to the
// sender's arena, from whichever goroutine drops it. A view nobody
// releases (a failed Run) leaves its buffer to the garbage collector: a
// lost recycle, not a wrong bit.
//
// Receivers release in whatever order they finish, so which buffer a later
// Get returns may differ from run to run; the bits do not, because every
// sender writes its buffer in full before it deposits a view of it.

// Loan is a send buffer lent from a rank's arena to the receivers of its
// views.
type Loan struct {
	// Data is the lent buffer, with unspecified contents when lent.
	Data []float32
	pool *tensor.Pool
	// views counts the undropped views plus the lender's hold.
	views atomic.Int64
}

// Lend draws an n-element send buffer from r's arena (a fresh one when the
// cluster disables pooling), held by r until Done.
func (r *Rank) Lend(n int) *Loan {
	pool := r.Pool()
	l := &Loan{Data: pool.GetBuf(n), pool: pool}
	l.views.Store(1)
	return l
}

// Done drops the lender's hold. Call it once every exchange that sends a
// view of the buffer has been issued; neither the lender nor anyone else
// may write the buffer afterwards. A nil loan is a no-op.
func (l *Loan) Done() { l.drop() }

// drop releases one view of l (nil: none) and, with the last one, returns
// the buffer to the lender's arena.
func (l *Loan) drop() {
	if l == nil {
		return
	}
	switch v := l.views.Add(-1); {
	case v > 0:
		return
	case v < 0:
		panic("simrt: lent buffer released more often than it was lent")
	}
	if poisonReleased.Load() {
		buf := l.Data[:cap(l.Data)]
		for i := range buf {
			buf[i] = float32(math.NaN())
		}
	}
	l.pool.PutBuf(l.Data)
}

// poisonReleased makes the last release of every loan fill its buffer with
// NaN, so a read after a release, or a release before the last read, shows
// as a bit difference instead of reading the data it happens to still
// hold.
var poisonReleased atomic.Bool

// PoisonReleased turns the NaN fill at each loan's last release on or off,
// and with it the poisoning of every moe.Scratch set returned to its pool.
// It is a test hook: the determinism tests run with it on.
func PoisonReleased(on bool) { poisonReleased.Store(on) }

// PoisoningReleased reports whether PoisonReleased is on.
func PoisoningReleased() bool { return poisonReleased.Load() }

// lentViews is how many views of a loan a deposit of send parts delivers:
// one per part that carries data.
func lentViews(send []Part) (n int) {
	for _, p := range send {
		if p.Data != nil {
			n++
		}
	}
	return n
}

// release drops the views member m received from the flight: the part from
// each member whose deposit named a loan and carried data. A receiver's
// parts are one per member for both kinds that lend: the all-to-all-v's
// from each source, and the all-gather's shared list.
func (f *flight) release(m int) {
	if f.lent == nil {
		return
	}
	for src, p := range f.parts(m) {
		if p.Data != nil {
			f.lent[src].drop()
		}
	}
}
