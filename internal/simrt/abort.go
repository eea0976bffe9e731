package simrt

// Abortable rendezvous and deterministic fault injection. Without this
// machinery a rank that dies mid-collective leaves every peer parked at
// the rendezvous forever and Cluster.Run never returns; with it, a
// failing rank marks itself gone on every group it belongs to, pending
// and future rendezvous that can no longer complete wake their waiters
// with a typed error, and every survivor unwinds through Run with
// ErrPeerFailed instead of deadlocking. Injected faults (crashes,
// stragglers, flaky-collective delays) enter through the Injector hook
// so the fault schedule lives outside the runtime and stays fully
// deterministic: the runtime only ever asks "given this rank at this
// clock, what happens?".

import (
	"errors"
	"fmt"
)

var (
	// ErrPeerFailed is reported by a surviving rank whose collective was
	// aborted because another member of the group failed (crashed,
	// panicked, returned an error, or exited while peers still expected
	// it at a rendezvous).
	ErrPeerFailed = errors.New("simrt: peer rank failed")
	// ErrRankCrashed marks an injected rank crash (Injector.CrashError).
	ErrRankCrashed = errors.New("simrt: rank crashed (injected fault)")
)

// Injector is the fault-injection hook consulted by every rank at each
// compute span and collective entry. Implementations must be safe for
// concurrent use by all rank goroutines and deterministic in their
// arguments (same rank/name/clock sequence, same answers) so that a
// seeded fault plan reproduces bit-identical schedules. A nil
// Cluster.Inject disables injection with zero overhead beyond one nil
// check per operation.
type Injector interface {
	// ComputeScale returns the straggler multiplier for the rank's
	// compute durations (1 means healthy; 2 means the rank computes at
	// half speed).
	ComputeScale(rank int) float64
	// CollectiveDelay returns extra seconds to charge the rank's clock
	// before it enters the named collective — the modeled
	// timeout-then-retry cost of a flaky collective (zero when healthy).
	CollectiveDelay(rank int, name string, clock float64) float64
	// CrashError returns a non-nil error when the rank must crash at or
	// before the given clock; the rank aborts with that error at its
	// next operation boundary. Implementations should wrap
	// ErrRankCrashed.
	CrashError(rank int, clock float64) error
}

// abortPanic carries a typed abort up through the SPMD body to Run's
// recover, which converts it to the rank's error instead of a generic
// "rank panicked" wrapper.
type abortPanic struct{ err error }

// fail aborts the calling rank's SPMD body with err. It never returns.
func (r *Rank) fail(err error) {
	panic(abortPanic{err: err})
}

// preCollective is called at the entry of every collective (blocking and
// async): it fires any pending injected crash and charges flaky-
// collective retry delays to the rank's clock, recording them under
// "<name>_retry" so charged breakdowns still sum to wall-clock time.
func (r *Rank) preCollective(name string) {
	inj := r.C.Inject
	if inj == nil {
		return
	}
	if err := inj.CrashError(r.ID, r.Clock); err != nil {
		r.fail(fmt.Errorf("rank %d at %.6fs in %s: %w", r.ID, r.Clock, name, err))
	}
	if d := inj.CollectiveDelay(r.ID, name, r.Clock); d > 0 {
		r.Trace.Record(name+"_retry", r.Clock, d)
		r.Clock += d
	}
}

// failRank records rank id's failure and marks it gone on every group it
// belongs to, waking any peers parked at rendezvous that can no longer
// complete. Called from the failing rank's own goroutine (Run's recover
// or error path), so the rank is never mid-rendezvous when it runs.
func (c *Cluster) failRank(id int, err error) {
	c.failMu.Lock()
	if c.failed == nil {
		c.failed = map[int]error{}
	}
	if _, dup := c.failed[id]; !dup {
		c.failed[id] = err
	}
	c.failMu.Unlock()
	for _, g := range c.groupList() {
		g.markGone(id, err)
	}
}

// rankDone marks a cleanly returned rank gone on its groups so that a
// peer issuing a collective the finished rank will never join gets a
// desync error instead of deadlocking. Rendezvous the rank already
// deposited to are unaffected (the gone mark is sequence-aware), so
// well-formed SPMD programs never observe it.
func (c *Cluster) rankDone(id int) {
	for _, g := range c.groupList() {
		g.markGone(id, desyncError(id))
	}
}

// desyncError is the gone mark of rank int(e), which returned cleanly. A
// peer reads it only when a collective the rank will never join fails,
// so its message is built then, not once per returning rank.
type desyncError int

func (e desyncError) Error() string {
	return fmt.Sprintf("rank %d already returned (collective-count desync): %v", int(e), ErrPeerFailed)
}

func (e desyncError) Unwrap() error { return ErrPeerFailed }

// resetFailures clears the failure registry and every group's gone marks
// at the start of a Run, so a cluster whose previous Run completed
// cleanly can be reused (the DistTrainer runs one Run per step on
// persistent groups). A cluster whose previous Run *failed* is poisoned
// — rank collective counters are desynchronised and parked rendezvous
// state may linger — and must be rebuilt, not reused; the recovery loop
// in internal/train does exactly that.
func (c *Cluster) resetFailures() {
	c.failMu.Lock()
	c.failed = nil
	c.failMu.Unlock()
	for _, g := range c.groupList() {
		g.clearGone()
	}
}

// FailedRanks returns a copy of the failure registry from the most
// recent Run: global rank -> the error that took it down. Empty after a
// clean run.
func (c *Cluster) FailedRanks() map[int]error {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	out := make(map[int]error, len(c.failed))
	for k, v := range c.failed {
		out[k] = v
	}
	return out
}

// groupList returns the cluster's groups. The list only grows, by append,
// so the slice read under the lock is a snapshot that later registrations
// leave alone, and no copy is needed.
func (c *Cluster) groupList() []*Group {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	return c.groups
}

// registerGroup adds g to the cluster's group list so rank failures can
// abort its rendezvous.
func (c *Cluster) registerGroup(g *Group) {
	c.failMu.Lock()
	c.groups = append(c.groups, g)
	c.failMu.Unlock()
}
