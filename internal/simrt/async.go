package simrt

import "fmt"

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
	// leak report is anchored to it.
	issuedAt float64
	// fl is the collective's flight and m the rank's member index in it.
	fl     *flight
	m      int
	waited bool
}

// Wait blocks the rank's virtual clock until the collective completes and
// returns the received parts (indexed by source member). Only the
// *uncovered* remainder of the collective's cost — the part not hidden
// behind compute the rank performed since issuing — is charged to the
// clock and recorded under the collective's stage name, so per-stage
// breakdowns still sum to wall-clock time. The full physical span is
// recorded as an overlapped trace event. A collective that could not be
// priced fails the rank with an error wrapping ErrPeerFailed.
func (h *CommHandle) Wait() []Part {
	if h.waited {
		return h.fl.parts(h.m)
	}
	h.waited = true
	r := h.r
	start, end := r.await(h.fl, h.name)
	r.Trace.RecordOverlapped(h.name, start, end-start)
	uncovered := end - r.Clock
	if uncovered < 0 {
		uncovered = 0
	}
	r.Trace.Record(h.name, r.Clock, uncovered)
	r.Clock += uncovered
	return h.fl.parts(h.m)
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
// hide behind, so it is the blocking AlltoAllV itself — the same flight
// waited at issue, fault hooks and single charged span, no overlapped
// span — and Wait only hands its parts over; with more chunks it is
// AlltoAllVAsync and Wait charges the uncovered remainder.
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
