package simrt

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// lendAndExchange has every rank of c lend a buffer of 2 floats per
// member, fill it with its rank ID and send member j the view [2j, 2j+2)
// over an all-to-all-v of the given chunk count. Once the exchange is
// issued it drops its hold; check then runs with the loan and the
// exchange, before and after this rank's Release.
func lendAndExchange(t *testing.T, c *Cluster, g *Group, chunks int, check func(r *Rank, l *Loan, x Exchange) error) {
	t.Helper()
	p := g.Size()
	err := c.Run(func(r *Rank) error {
		l := r.Lend(2 * p)
		send := make([]Part, p)
		for j := range send {
			l.Data[2*j], l.Data[2*j+1] = float32(r.ID), float32(j)
			send[j] = Part{Data: l.Data[2*j : 2*j+2], Bytes: 8}
		}
		x := r.AlltoAllVChunk(g, "lent", send, l, chunks)
		l.Done()
		for src, part := range x.Wait() {
			if part.Data[0] != float32(src) || part.Data[1] != float32(g.IndexOf(r.ID)) {
				return fmt.Errorf("rank %d: part from %d = %v", r.ID, src, part.Data)
			}
		}
		return check(r, l, x)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLentBufferReturnsAfterLastRelease: a lent buffer counts one view per
// data part its deposit delivers; it stays out of the lender's arena until
// the lender's hold and every receiver's view are dropped, and the last
// drop puts it back there, whichever rank drops it.
func TestLentBufferReturnsAfterLastRelease(t *testing.T) {
	for _, chunks := range []int{1, 2} {
		t.Run(fmt.Sprintf("c%d", chunks), func(t *testing.T) {
			c := testCluster(4)
			g := c.WorldGroup()
			lendAndExchange(t, c, g, chunks, func(r *Rank, l *Loan, x Exchange) error {
				r.Barrier(g) // every hold dropped, no view released
				if v := l.views.Load(); v != 4 {
					return fmt.Errorf("rank %d: %d views outstanding before any release, want 4", r.ID, v)
				}
				r.Barrier(g) // every rank has counted
				x.Release()
				r.Barrier(g) // every view released
				if v := l.views.Load(); v != 0 {
					return fmt.Errorf("rank %d: %d views outstanding after every release", r.ID, v)
				}
				if got := r.Pool().GetBuf(len(l.Data)); &got[0] != &l.Data[0] {
					return fmt.Errorf("rank %d: the released buffer is not back in the lender's arena", r.ID)
				}
				return nil
			})
		})
	}
}

// TestLentAllGatherCountsEveryMember: an all-gather delivers one lent part
// to every member, so it counts as many views, and every member's Release
// drops one view of each member's loan.
func TestLentAllGatherCountsEveryMember(t *testing.T) {
	c := testCluster(4)
	g := c.WorldGroup()
	err := c.Run(func(r *Rank) error {
		l := r.Lend(1)
		l.Data[0] = float32(r.ID)
		x := r.AllGather(g, "ag", Part{Data: l.Data, Bytes: 4}, l)
		l.Done()
		for m, part := range x.Wait() {
			if part.Data[0] != float32(m) {
				return fmt.Errorf("rank %d: part %d = %v", r.ID, m, part.Data)
			}
		}
		r.Barrier(g)
		if v := l.views.Load(); v != 4 {
			return fmt.Errorf("rank %d: %d views before release, want 4", r.ID, v)
		}
		r.Barrier(g)
		x.Release()
		r.Barrier(g)
		if v := l.views.Load(); v != 0 {
			return fmt.Errorf("rank %d: %d views after release", r.ID, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPoisonReleasedFillsNaN: with the test hook on, the last release
// fills the whole buffer with NaN, and no release before it does.
func TestPoisonReleasedFillsNaN(t *testing.T) {
	PoisonReleased(true)
	defer PoisonReleased(false)
	c := testCluster(2)
	g := c.WorldGroup()
	lendAndExchange(t, c, g, 2, func(r *Rank, l *Loan, x Exchange) error {
		r.Barrier(g)
		if math.IsNaN(float64(l.Data[0])) {
			return fmt.Errorf("rank %d: buffer poisoned while views are outstanding", r.ID)
		}
		r.Barrier(g)
		x.Release()
		r.Barrier(g)
		for i, v := range l.Data[:cap(l.Data)] {
			if !math.IsNaN(float64(v)) {
				return fmt.Errorf("rank %d: element %d = %v after the last release, want NaN", r.ID, i, v)
			}
		}
		return nil
	})
}

// TestLoanOverReleaseFails: dropping more views than were lent is a
// protocol error the rank fails with, not a buffer handed out twice.
func TestLoanOverReleaseFails(t *testing.T) {
	c := testCluster(2)
	g := c.WorldGroup()
	err := c.Run(func(r *Rank) error {
		l := r.Lend(2)
		x := r.AlltoAllVChunk(g, "lent", []Part{{Data: l.Data[:1], Bytes: 4}, {Data: l.Data[1:], Bytes: 4}}, l, 1)
		l.Done()
		x.Release()
		r.Barrier(g)
		if r.ID == 0 {
			x.Release()
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "released more often than it was lent") {
		t.Fatalf("err = %v, want an over-release failure", err)
	}
}

// TestLendWithoutPoolsIsFresh: with pooling disabled a loan is a fresh
// buffer its last release returns nowhere, and a part of a named loan that
// carries no data counts no view.
func TestLendWithoutPoolsIsFresh(t *testing.T) {
	c := testCluster(2)
	c.DisablePools = true
	g := c.WorldGroup()
	err := c.Run(func(r *Rank) error {
		l := r.Lend(2)
		if l.pool != nil {
			return fmt.Errorf("rank %d: a loan drew from a disabled arena", r.ID)
		}
		x := r.AlltoAllVChunk(g, "lent", []Part{{Bytes: 4}, {Data: l.Data[1:], Bytes: 4}}, l, 2)
		l.Done()
		x.Wait()
		r.Barrier(g)
		if v := l.views.Load(); v != 1 {
			return fmt.Errorf("rank %d: %d views outstanding, want the one data part's", r.ID, v)
		}
		r.Barrier(g)
		x.Release()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
