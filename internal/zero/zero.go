// Package zero implements ZeRO-style bucketed gradient synchronisation
// and state-sharding geometry over the simulated runtime (DeepSpeed
// ZeRO-1/2, Megatron Core's bucketed distributed optimizer; the ROADMAP
// "ZeRO-style sharded, overlapped optimizer" item).
//
// A Syncer streams gradient tensors into fixed-size buckets and issues
// one non-blocking collective per bucket as soon as it fills — an
// all-reduce at stage 0/1 (every rank receives full reduced gradients)
// or a reduce-scatter at stage 2 (each rank receives only the bucket
// shard it owns). Because the async reducers reuse the blocking
// all-reduce's member-order summation and stage-2 shards are slices of
// that same full sum (simrt.ShardRange), the reduced values are
// bit-identical across stages and across any bucket size.
//
// Ownership is a pure function of the geometry: the concatenated
// gradient stream is cut into buckets of BucketBytes, and each bucket is
// partitioned across the group with simrt.ShardRange — the same
// remainder-to-leading-ranks convention netsim.ReduceScatter charges on
// the wire. OwnedPartition precomputes the per-member owned ranges so
// optimizers can size sharded state (momentum) and checkpoint code can
// reshard without running a backward pass.
package zero

import (
	"fmt"

	"xmoe/internal/simrt"
)

// Config selects the sharding stage and bucket granularity.
type Config struct {
	// Stage is the ZeRO stage: 0 (replicated), 1 (optimizer state
	// sharded), 2 (optimizer state + gradients sharded). Stages 0 and 1
	// sync gradients with all-reduce; stage 2 with reduce-scatter.
	Stage int
	// BucketBytes caps each sync bucket's wire size; <= 0 means a single
	// bucket per Flush (sync everything at once).
	BucketBytes int64
}

// Check validates the configuration.
func (c Config) Check() error {
	if c.Stage < 0 || c.Stage > 2 {
		return fmt.Errorf("zero: stage %d not in [0,2]", c.Stage)
	}
	return nil
}

// Range is a half-open [Lo, Hi) element range over the concatenated
// gradient stream.
type Range struct{ Lo, Hi int }

// Len returns the range's element count.
func (r Range) Len() int { return r.Hi - r.Lo }

// Shard is one owned piece of the reduced gradient stream: Data views
// the registered gradient slice (fully reduced at the owned positions
// after Wait), and [Lo, Hi) are its global stream offsets.
type Shard struct {
	Data   []float32
	Lo, Hi int
}

// segment is a registered slice view scheduled into a bucket.
type segment struct {
	data     []float32
	streamLo int
}

// bucket is one issued (or pending) sync collective.
type bucket struct {
	h        *simrt.CommHandle
	segs     []segment
	elems    int
	bytes    int64
	streamLo int
}

// Syncer accumulates gradient tensors into buckets and issues one async
// reduction per bucket. Usage: Add each gradient as its dW completes
// (typically from a PipelineOpts.OnDWReady hook), Flush after the last,
// Wait before the optimizer step. Add/Flush leave the rank's clock
// untouched apart from issuing the collectives; Wait charges only the
// uncovered remainder of each bucket's sync.
//
// All members of the group must Add the same tensor sizes in the same
// order (SPMD discipline). Numeric and symbolic deposits must not be
// mixed: either every Add carries data (numeric) or none does
// (symbolic, byte-only timing).
type Syncer struct {
	r    *simrt.Rank
	g    *simrt.Group
	name string
	cfg  Config

	capBytes int64 // per-bucket wire budget (0: unbounded until Flush)
	bpe      int64 // bytes per element, uniform across numeric deposits

	cur      bucket
	buckets  []*bucket
	streamHi int // elements deposited so far
	numeric  bool
	started  bool
	waited   bool
}

// NewSyncer builds a bucketed gradient syncer over the group. name is
// the trace span all bucket collectives are recorded under.
func NewSyncer(r *simrt.Rank, g *simrt.Group, name string, cfg Config) *Syncer {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	return &Syncer{r: r, g: g, name: name, cfg: cfg, capBytes: cfg.BucketBytes}
}

// Add streams one gradient tensor into the bucket sequence. data may be
// nil for symbolic (byte-only) syncs, which deposit one element per byte;
// when non-nil, bytes must be an exact multiple of len(data) and the
// per-element size must match every other numeric deposit (buckets split
// at element granularity). Full buckets are issued immediately.
func (s *Syncer) Add(data []float32, bytes int64) {
	if s.waited {
		panic("zero: Add after Wait")
	}
	if bytes <= 0 {
		return
	}
	numeric := data != nil
	switch {
	case s.started && numeric && !s.numeric:
		panic("zero: numeric Add after symbolic deposits")
	case s.started && !numeric && s.numeric:
		panic("zero: symbolic Add after numeric deposits")
	}
	n, bpe := bytes, int64(1)
	if numeric {
		n = int64(len(data))
		bpe = bytes / n
		if bpe*n != bytes {
			panic(fmt.Sprintf("zero: %d bytes not a multiple of %d elements", bytes, n))
		}
		if s.started && bpe != s.bpe {
			panic(fmt.Sprintf("zero: mixed element sizes %d and %d", s.bpe, bpe))
		}
	}
	s.started, s.numeric, s.bpe = true, numeric, bpe

	for n > 0 {
		take := n
		if s.capBytes > 0 {
			space := (s.capBytes - s.cur.bytes) / bpe
			if space <= 0 {
				s.issue()
				continue
			}
			take = min(take, space)
		}
		if numeric {
			s.cur.segs = append(s.cur.segs, segment{data: data[:take], streamLo: s.streamHi})
			data = data[take:]
		}
		s.cur.elems += int(take)
		s.cur.bytes += take * bpe
		s.streamHi += int(take)
		n -= take
		if s.capBytes > 0 && s.cur.bytes >= s.capBytes {
			s.issue()
		}
	}
}

// Flush issues the tail bucket, if any. Must be called after the last
// Add and before Wait.
func (s *Syncer) Flush() {
	if s.cur.bytes > 0 {
		s.issue()
	}
}

// issue fires the current bucket's collective and starts a new bucket.
func (s *Syncer) issue() {
	b := s.cur
	s.cur = bucket{streamLo: s.streamHi}
	if b.bytes == 0 {
		return
	}
	// The deposit buffer crosses a collective: peers read it after the
	// rendezvous, so it must be freshly allocated, never pooled.
	var buf []float32
	if s.numeric {
		buf = make([]float32, b.elems)
		off := 0
		for _, seg := range b.segs {
			copy(buf[off:], seg.data)
			off += len(seg.data)
		}
	}
	if s.cfg.Stage >= 2 {
		b.h = s.r.ReduceScatterAsync(s.g, s.name, buf, b.bytes)
	} else {
		b.h = s.r.AllReduceAsync(s.g, s.name, buf, b.bytes)
	}
	bb := b
	s.buckets = append(s.buckets, &bb)
}

// Wait drains every issued bucket in issue order, writes the reduced
// values back into the registered gradient slices (all positions at
// stage 0/1; only this rank's owned positions at stage 2 — unowned
// positions keep their raw local gradients), and returns this rank's
// owned shards in deterministic (bucket, stream) order. At stage 0 the
// owned shards cover the full stream; at stage 1/2 they cover this
// member's ShardRange of each bucket.
func (s *Syncer) Wait() []Shard {
	if s.waited {
		panic("zero: double Wait")
	}
	s.waited = true
	if s.cur.bytes > 0 {
		panic("zero: Wait with unflushed deposits (call Flush)")
	}
	me := s.g.IndexOf(s.r.ID)
	p := s.g.Size()
	var owned []Shard
	for _, b := range s.buckets {
		parts := b.h.Wait()
		if !s.numeric {
			continue
		}
		if s.cfg.Stage >= 2 {
			sLo, sHi := simrt.ShardRange(b.elems, p, me)
			owned = append(owned, s.writeBack(b, parts[0].Data, sLo, sHi)...)
		} else {
			shards := s.writeBack(b, parts[0].Data, 0, b.elems)
			lo, hi := 0, b.elems
			if s.cfg.Stage == 1 {
				lo, hi = simrt.ShardRange(b.elems, p, me)
			}
			// Stage 0/1: everything is reduced in place; ownership is the
			// full bucket (stage 0) or this member's shard (stage 1).
			owned = append(owned, clipShards(shards, b.streamLo+lo, b.streamLo+hi)...)
		}
	}
	return owned
}

// writeBack copies sum (the reduced values for bucket-local range
// [sLo, sHi)) into the registered segments and returns the written
// views as stream-addressed shards.
func (s *Syncer) writeBack(b *bucket, sum []float32, sLo, sHi int) []Shard {
	var out []Shard
	off := 0 // bucket-local offset of the current segment
	for _, seg := range b.segs {
		segHi := off + len(seg.data)
		lo, hi := sLo, sHi
		if lo < off {
			lo = off
		}
		if hi > segHi {
			hi = segHi
		}
		if lo < hi {
			dst := seg.data[lo-off : hi-off]
			copy(dst, sum[lo-sLo:hi-sLo])
			out = append(out, Shard{
				Data: dst,
				Lo:   seg.streamLo + (lo - off),
				Hi:   seg.streamLo + (hi - off),
			})
		}
		off = segHi
	}
	return out
}

// clipShards restricts stream-addressed shards to [lo, hi).
func clipShards(shards []Shard, lo, hi int) []Shard {
	var out []Shard
	for _, sh := range shards {
		l, h := sh.Lo, sh.Hi
		if l < lo {
			l = lo
		}
		if h > hi {
			h = hi
		}
		if l < h {
			out = append(out, Shard{Data: sh.Data[l-sh.Lo : h-sh.Lo], Lo: l, Hi: h})
		}
	}
	return out
}

// OwnedPartition returns, for each of the p group members, the owned
// element ranges (global stream offsets) a Syncer with this config
// produces over a gradient stream of the given tensor sizes — without
// running any collective. It is the static geometry behind sharded
// optimizer state and checkpoint resharding: Stage 0 gives every member
// the full stream; stages 1/2 cut the stream into BucketBytes buckets
// and give member i its ShardRange of each bucket.
func OwnedPartition(cfg Config, p int, elemCounts []int, bytesPerElem int64) [][]Range {
	total := 0
	for _, n := range elemCounts {
		total += n
	}
	out := make([][]Range, p)
	if cfg.Stage == 0 {
		for i := range out {
			if total > 0 {
				out[i] = []Range{{0, total}}
			}
		}
		return out
	}
	capElems := total
	if cfg.BucketBytes > 0 && bytesPerElem > 0 {
		capElems = int(cfg.BucketBytes / bytesPerElem)
		if capElems < 1 {
			capElems = 1
		}
	}
	for lo := 0; lo < total; lo += capElems {
		hi := lo + capElems
		if hi > total {
			hi = total
		}
		for i := 0; i < p; i++ {
			sLo, sHi := simrt.ShardRange(hi-lo, p, i)
			if sLo < sHi {
				out[i] = append(out[i], Range{lo + sLo, lo + sHi})
			}
		}
	}
	return out
}

// OwnedCount sums the element counts of a member's owned ranges.
func OwnedCount(ranges []Range) int {
	n := 0
	for _, r := range ranges {
		n += r.Len()
	}
	return n
}
