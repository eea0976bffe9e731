package simrt

import (
	"fmt"

	"xmoe/internal/netsim"
)

// Non-blocking collectives. The payload exchange still resolves at a
// rendezvous (all members must deposit before anyone can receive), but the
// modeled *time* is decoupled from the call: issuing a collective leaves
// the rank's clock untouched, and CommHandle.Wait later charges only the
// part of the collective's duration the rank did not cover with compute in
// the meantime. This is the overlap model behind the chunked MoE pipelines
// (FastMoE's smart scheduling, Megatron Core's MoE comm/compute overlap):
//
//	start = max over members of max(entry clock, comm-stream busy time)
//	end   = start + netsim cost
//	Wait: clock = max(clock, end)   — the uncovered remainder
//
// Collectives issued by one rank serialise on its comm stream (a later
// async collective cannot start before an earlier one finishes), which
// prevents chunked pipelines from overlapping their own chunks' transfers
// with each other for free bandwidth.

// a2avAsyncEntry is one rank's deposit for a non-blocking all-to-all-v:
// the per-destination parts plus the rank's comm-stream horizon.
type a2avAsyncEntry struct {
	parts []Part
	busy  float64
}

// a2avAsyncResult is the shared result of an async all-to-all-v
// rendezvous: the exchanged parts and the collective's physical timeline.
type a2avAsyncResult struct {
	cost       netsim.Cost
	start, end float64
	// recv[dst][src] is the part sent by member src to member dst.
	recv [][]Part
}

// CommHandle tracks one in-flight non-blocking collective for one rank.
// Wait must be called by the issuing rank (handles are not shareable
// across ranks) and is idempotent. Every issued handle must eventually be
// waited: a handle dropped without Wait means the program consumed the
// collective's payload without synchronising (or never consumed it at
// all), so Cluster.Run reports never-waited handles as rank errors when
// the SPMD body returns.
type CommHandle struct {
	r    *Rank
	name string
	// issuedAt is the rank's clock when the collective was issued; the
	// leak report and WaitDeadline are anchored to it.
	issuedAt float64
	start    float64
	end      float64
	recv     []Part
	waited   bool
}

// Seconds returns the collective's full modeled duration, regardless of
// how much of it overlaps compute.
func (h *CommHandle) Seconds() float64 { return h.end - h.start }

// Done reports whether the collective has completed by the rank's current
// clock — i.e. whether Wait would charge nothing.
func (h *CommHandle) Done() bool { return h.r.Clock >= h.end }

// Wait blocks the rank's virtual clock until the collective completes and
// returns the received parts (indexed by source member). Only the
// *uncovered* remainder of the collective's cost — the part not hidden
// behind compute the rank performed since issuing — is charged to the
// clock and recorded under the collective's stage name, so per-stage
// breakdowns still sum to wall-clock time. The full physical span is
// recorded as an overlapped trace event.
func (h *CommHandle) Wait() []Part {
	if h.waited {
		return h.recv
	}
	h.waited = true
	r := h.r
	r.Trace.RecordOverlapped(h.name, h.start, h.end-h.start)
	uncovered := h.end - r.Clock
	if uncovered < 0 {
		uncovered = 0
	}
	r.Trace.Record(h.name, r.Clock, uncovered)
	r.Clock += uncovered
	return h.recv
}

// AlltoAllVAsync issues a non-blocking uneven all-to-all among the group:
// like AlltoAllV, but the call returns immediately at the rank's current
// clock with a handle. The collective physically starts once every member
// has issued it and every member's comm stream is free, and completes one
// netsim cost later; Wait charges the issuing rank only the uncovered
// remainder. Every member must issue the same collectives in the same
// order (SPMD discipline), including the interleaving of async issues and
// waits with blocking collectives on the same group.
func (r *Rank) AlltoAllVAsync(g *Group, name string, send []Part) *CommHandle {
	if len(send) != g.Size() {
		panic(fmt.Sprintf("simrt: AlltoAllVAsync send has %d parts for group of %d", len(send), g.Size()))
	}
	r.preCollective(name)
	res := g.collectNoSync(r, name, a2avAsyncEntry{parts: send, busy: r.commBusyUntil},
		func(entries []any, clocks []float64) any {
			p := len(entries)
			bytes := make([][]int64, p)
			bytesFlat := make([]int64, p*p)
			recv := make([][]Part, p)
			recvFlat := make([]Part, p*p)
			for d := range recv {
				bytes[d] = bytesFlat[d*p : (d+1)*p]
				recv[d] = recvFlat[d*p : (d+1)*p]
			}
			var start float64
			for s, e := range entries {
				ent := e.(a2avAsyncEntry)
				if clocks[s] > start {
					start = clocks[s]
				}
				if ent.busy > start {
					start = ent.busy
				}
				for d, part := range ent.parts {
					bytes[s][d] = part.Bytes
					recv[d][s] = part
				}
			}
			cost := g.c.CostEngine().AlltoAllV(g.ranks, bytes)
			return a2avAsyncResult{cost: cost, start: start, end: start + cost.Seconds, recv: recv}
		}).(a2avAsyncResult)
	r.commBusyUntil = res.end
	h := &CommHandle{
		r:        r,
		name:     name,
		issuedAt: r.Clock,
		start:    res.start,
		end:      res.end,
		recv:     res.recv[g.IndexOf(r.ID)],
	}
	r.issuedHandles = append(r.issuedHandles, h)
	return h
}

// Exchange is one all-to-all-v of a pipeline that splits its traffic into
// chunks: what AlltoAllVChunk issued, to be collected with Wait. It is a
// value (no allocation) wrapping either an in-flight CommHandle or the
// parts a blocking exchange already delivered.
type Exchange struct {
	h    *CommHandle
	recv []Part
}

// AlltoAllVChunk issues one of the chunks exchanges a pipeline stage is
// split into, and is the one place that decides what a chunk count means
// for the transport: a single chunk has no sibling transfer or compute to
// hide behind, so it is the blocking AlltoAllV itself — same comm-stream
// drain, fault hooks and single charged span, no overlapped span — and
// Wait only hands its parts over; with more chunks it is AlltoAllVAsync
// and Wait charges the uncovered remainder.
func (r *Rank) AlltoAllVChunk(g *Group, name string, send []Part, chunks int) Exchange {
	if chunks <= 1 {
		return Exchange{recv: r.AlltoAllV(g, name, send)}
	}
	return Exchange{h: r.AlltoAllVAsync(g, name, send)}
}

// Wait returns the received parts (indexed by source member), blocking the
// rank's virtual clock first when the exchange is still in flight.
func (x Exchange) Wait() []Part {
	if x.h != nil {
		return x.h.Wait()
	}
	return x.recv
}

// WaitDeadline is Wait with a timeout anchored at issue time: if the
// collective's modeled completion lands more than timeout seconds after
// it was issued, the rank charges its clock only up to the deadline
// (recorded as "<name>_timeout"), the payload is discarded, and
// ErrCommTimeout is returned — the simulated analogue of a NCCL/RCCL
// watchdog firing on a stuck collective. On time, it behaves exactly
// like Wait. Either way the handle counts as waited.
func (h *CommHandle) WaitDeadline(timeout float64) ([]Part, error) {
	if h.waited {
		return h.recv, nil
	}
	if h.end-h.issuedAt > timeout {
		h.waited = true
		r := h.r
		r.Trace.RecordOverlapped(h.name, h.start, h.end-h.start)
		if deadline := h.issuedAt + timeout; deadline > r.Clock {
			r.Trace.Record(h.name+"_timeout", r.Clock, deadline-r.Clock)
			r.Clock = deadline
		}
		return nil, fmt.Errorf("simrt: %s issued at %.6fs would complete at %.6fs, %.6fs past its %.6fs deadline: %w",
			h.name, h.issuedAt, h.end, h.end-h.issuedAt-timeout, timeout, ErrCommTimeout)
	}
	return h.Wait(), nil
}

// leakedHandles describes the async collectives this rank issued but
// never waited, in issue order, each as "<name>@<issue clock>" so an
// aborted run pinpoints which call dropped its synchronisation. Called
// by the Run harness after the SPMD body returns.
func (r *Rank) leakedHandles() []string {
	var leaked []string
	for _, h := range r.issuedHandles {
		if !h.waited {
			leaked = append(leaked, fmt.Sprintf("%s@%.6fs", h.name, h.issuedAt))
		}
	}
	return leaked
}

// ChunkRange returns the half-open row range [lo, hi) of chunk c when n
// rows are split into chunks nearly-equal pieces: the canonical split the
// chunked overlap pipelines use on both the send and receive side, so the
// two ends agree on chunk boundaries without exchanging extra metadata.
func ChunkRange(n, chunks, c int) (lo, hi int) {
	if chunks <= 1 {
		return 0, n
	}
	return n * c / chunks, n * (c + 1) / chunks
}
