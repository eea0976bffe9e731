package simrt

import (
	"fmt"
	"sync"
)

// Group is a communicator: an ordered set of ranks that perform
// collectives together. Collective calls on a group must be issued in the
// same order by every member (SPMD discipline), as on a real NCCL/RCCL
// communicator.
type Group struct {
	c     *Cluster
	ranks []int
	index map[int]int

	mu      sync.Mutex
	counter []uint64 // per-member collective sequence number
	pending map[uint64]*rendezvous
	// gone[i] is non-nil when member i can no longer participate in
	// collectives (crashed, errored, or returned); goneAt[i] is the first
	// sequence number the member will never reach. Rendezvous at earlier
	// sequences already hold its deposit and complete normally; rendezvous
	// at goneAt or later abort with ErrPeerFailed instead of deadlocking.
	gone   []error
	goneAt []uint64
}

// Size returns the number of member ranks.
func (g *Group) Size() int { return len(g.ranks) }

// Ranks returns the member ranks in ascending global order. The slice must
// not be mutated.
func (g *Group) Ranks() []int { return g.ranks }

// IndexOf returns the member index of global rank r, panicking if r is not
// a member.
func (g *Group) IndexOf(r int) int {
	i, ok := g.index[r]
	if !ok {
		panic(fmt.Sprintf("simrt: rank %d not in group %v", r, g.ranks))
	}
	return i
}

// Contains reports whether global rank r is a member.
func (g *Group) Contains(r int) bool {
	_, ok := g.index[r]
	return ok
}

// rendezvous is the meeting point for one collective call: every member
// deposits its contribution; the last arriver prices the collective once;
// everyone leaves with the shared flight.
type rendezvous struct {
	mu      sync.Mutex
	cond    sync.Cond
	arrived int
	left    int
	done    bool
	// failed is set (and cond broadcast) when a member that has not yet
	// deposited goes away: the rendezvous can never complete, so waiters
	// wake and abort instead of parking forever.
	failed error
	deps   []deposit
	fl     flight
}

func newRendezvous(n int) *rendezvous {
	rv := &rendezvous{deps: make([]deposit, n)}
	rv.cond.L = &rv.mu
	return rv
}

// fly issues one collective for rank r and returns its flight as r sees
// it. It fires r's fault hooks, deposits d with the time r's comm stream
// can start it — max(clock, comm-stream busy) — blocks until every member
// has deposited, and has exactly one member price the collective once:
// the flight starts at the latest member's ready time and ends one cost
// later. r's comm stream is busy until the end; r.Clock is left to the
// caller, which either waits the flight at once (blocking) or hands it to
// a CommHandle.
func (g *Group) fly(r *Rank, name string, d deposit, price pricer) (start, end float64, recv []Part) {
	r.preCollective(name)
	d.ready = max(r.Clock, r.commBusyUntil)
	idx := g.IndexOf(r.ID)

	g.mu.Lock()
	seq := g.counter[idx]
	// A member already gone before this sequence will never deposit, so
	// the rendezvous can never complete: abort without parking. Checked
	// under g.mu, the same lock markGone holds while setting gone marks
	// and aborting pending rendezvous, so a failure is either seen here
	// or wakes this rank from the rendezvous below — never missed.
	for m, ge := range g.gone {
		if ge != nil && m != idx && g.goneAt[m] <= seq {
			g.mu.Unlock()
			r.fail(fmt.Errorf("rank %d: %s aborted, peer rank %d gone (%v): %w",
				r.ID, name, g.ranks[m], ge, ErrPeerFailed))
		}
	}
	g.counter[idx]++
	rv, ok := g.pending[seq]
	if !ok {
		rv = newRendezvous(len(g.ranks))
		g.pending[seq] = rv
	}
	g.mu.Unlock()

	rv.mu.Lock()
	rv.deps[idx] = d
	rv.arrived++
	if rv.arrived == len(g.ranks) {
		// If pricing panics it would unwind holding rv.mu and park every
		// peer forever; fail the rendezvous first, then let the panic
		// continue to Run's recover.
		func() {
			defer func() {
				if p := recover(); p != nil {
					rv.failed = fmt.Errorf("rank %d: %s pricing panicked: %v: %w",
						r.ID, name, p, ErrPeerFailed)
					rv.cond.Broadcast()
					rv.mu.Unlock()
					panic(p)
				}
			}()
			var ready float64
			for _, dep := range rv.deps {
				ready = max(ready, dep.ready)
			}
			secs, parts := price(g, rv.deps)
			rv.fl = flight{start: ready, end: ready + secs, recv: parts}
		}()
		rv.done = true
		rv.cond.Broadcast()
	} else {
		for !rv.done && rv.failed == nil {
			rv.cond.Wait()
		}
	}
	if rv.failed != nil {
		err := rv.failed
		rv.mu.Unlock()
		// The pending entry is intentionally leaked: the cluster is
		// poisoned after a failed Run and must be rebuilt, not reused.
		r.fail(fmt.Errorf("rank %d: %s aborted at rendezvous: %w", r.ID, name, err))
	}
	fl := rv.fl
	rv.left++
	last := rv.left == len(g.ranks)
	rv.mu.Unlock()

	if last {
		g.mu.Lock()
		delete(g.pending, seq)
		g.mu.Unlock()
	}

	r.commBusyUntil = fl.end
	if fl.recv != nil {
		recv = fl.recv[idx]
	}
	return fl.start, fl.end, recv
}

// markGone records that global rank gr will issue no further collectives
// on this group, failing it with err, and wakes waiters at every pending
// rendezvous the rank never deposited to (sequence >= its counter).
// Rendezvous it already deposited to complete normally, so a crash never
// corrupts an exchange that was already fully determined. No-op if gr is
// not a member or was already marked.
func (g *Group) markGone(gr int, err error) {
	idx, ok := g.index[gr]
	if !ok {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gone == nil {
		g.gone = make([]error, len(g.ranks))
		g.goneAt = make([]uint64, len(g.ranks))
	}
	if g.gone[idx] != nil {
		return
	}
	g.gone[idx] = err
	g.goneAt[idx] = g.counter[idx]
	for seq, rv := range g.pending {
		if seq < g.goneAt[idx] {
			continue // the gone rank already deposited; it can complete
		}
		rv.mu.Lock()
		if !rv.done && rv.failed == nil {
			rv.failed = fmt.Errorf("peer rank %d gone (%v): %w", gr, err, ErrPeerFailed)
			rv.cond.Broadcast()
		}
		rv.mu.Unlock()
	}
}

// clearGone resets the gone marks so a cleanly reused cluster (one Run
// per training step on persistent groups) does not see stale
// end-of-previous-Run marks from rankDone.
func (g *Group) clearGone() {
	g.mu.Lock()
	for i := range g.gone {
		g.gone[i] = nil
		g.goneAt[i] = 0
	}
	g.mu.Unlock()
}
