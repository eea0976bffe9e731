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

// rendezvous is the meeting point for one collective call: every member
// deposits its contribution into the shared flight and leaves once all
// members have.
type rendezvous struct {
	flight
	arrived int
	left    int
	// failed is set (and cond broadcast) when a member that has not yet
	// deposited goes away: the rendezvous can never complete, so waiters
	// wake and abort instead of parking forever.
	failed error
}

func newRendezvous(n int, name string) *rendezvous {
	rv := &rendezvous{flight: flight{name: name, deps: make([]deposit, n)}}
	rv.cond.L = &rv.mu
	return rv
}

// fly issues one collective for rank r and returns its flight and r's
// member index. It fires r's fault hooks, deposits d with r's entry clock
// and the flight r issued before this one, and blocks until every member
// has deposited and, when the flight is priced at the rendezvous, until
// it is priced. r's comm stream then holds the flight; r.Clock is left to
// the caller, which either waits the flight at once (blocking) or hands
// it to a CommHandle.
func (g *Group) fly(r *Rank, name string, d deposit, price pricer, blocking bool) (*flight, int) {
	r.preCollective(name)
	d.clock, d.prev = r.Clock, r.stream
	idx := g.IndexOf(r.ID)
	n := len(g.ranks)

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
		rv = newRendezvous(n, name)
		g.pending[seq] = rv
	}
	g.mu.Unlock()

	rv.mu.Lock()
	rv.deps[idx] = d
	if d.lent != nil {
		if rv.lent == nil {
			rv.lent = make([]*Loan, n)
		}
		rv.lent[idx] = d.lent
	}
	if rv.arrived == n-1 {
		// The last member to deposit prices the flight. A blocking one,
		// which every member waits for at once, and any one on an engine
		// whose answers depend on query order are priced before the others
		// leave, so such an engine sees each group's collectives in issue
		// order; the rest are priced on a goroutine Cluster.Run waits for,
		// one per flight not yet priced, so at most as many as the ranks
		// keep in flight.
		if blocking || g.c.pricesInOrder() {
			rv.mu.Unlock()
			rv.price(g, price)
			rv.mu.Lock()
		} else {
			g.c.pricing.Add(1)
			go func() {
				defer g.c.pricing.Done()
				rv.price(g, price)
			}()
		}
		rv.arrived++
		rv.cond.Broadcast()
	} else {
		rv.arrived++
		for rv.arrived < n && rv.failed == nil {
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
	rv.left++
	drained := rv.left == n
	rv.mu.Unlock()

	if drained {
		g.mu.Lock()
		delete(g.pending, seq)
		g.mu.Unlock()
	}
	r.stream = &rv.flight
	return &rv.flight, idx
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
		if rv.arrived < len(g.ranks) && rv.failed == nil {
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
