package zero

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"xmoe/internal/simrt"
	"xmoe/internal/topology"
)

func testCluster(n int) *simrt.Cluster {
	c := simrt.NewCluster(topology.Frontier(), n, 42)
	c.Net.DisableCongestion = true
	return c
}

// gradTensors builds each rank's deterministic gradient tensors.
func gradTensors(rank int, sizes []int) [][]float32 {
	out := make([][]float32, len(sizes))
	off := 0
	for t, n := range sizes {
		g := make([]float32, n)
		for i := range g {
			g[i] = float32(math.Sin(float64(rank*7919+off+i))) * float32(1+rank)
		}
		out[t] = g
		off += n
	}
	return out
}

// blockingReference computes the reduced gradient stream with one
// blocking all-reduce over the concatenation — the bit-identity anchor.
func blockingReference(t *testing.T, world int, sizes []int) []float32 {
	c := testCluster(world)
	g := c.WorldGroup()
	total := 0
	for _, n := range sizes {
		total += n
	}
	var ref []float32
	err := c.Run(func(r *simrt.Rank) error {
		cat := make([]float32, 0, total)
		for _, t := range gradTensors(r.ID, sizes) {
			cat = append(cat, t...)
		}
		sum := r.AllReduce(g, "ref", cat, int64(4*total))
		if r.ID == 0 {
			ref = append([]float32(nil), sum...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestSyncerBitIdenticalAcrossStagesAndBuckets is the package's core
// guarantee: for every stage and bucket size, the reduced values at the
// owned positions are bit-identical to one blocking all-reduce of the
// whole stream, and the owned shards tile the stream exactly as
// OwnedPartition predicts.
func TestSyncerBitIdenticalAcrossStagesAndBuckets(t *testing.T) {
	const world = 4
	sizes := []int{13, 10, 1} // deliberately awkward: remainders everywhere
	total := 24
	ref := blockingReference(t, world, sizes)

	for _, stage := range []int{0, 1, 2} {
		for _, bucketBytes := range []int64{0, 4, 16, 52, 4 * int64(total)} {
			cfg := Config{Stage: stage, BucketBytes: bucketBytes}
			name := fmt.Sprintf("stage%d_bucket%d", stage, bucketBytes)
			t.Run(name, func(t *testing.T) {
				c := testCluster(world)
				g := c.WorldGroup()
				part := OwnedPartition(cfg, world, sizes, 4)

				type rankOut struct {
					grads  [][]float32
					shards []Shard
				}
				outs := make([]rankOut, world)
				err := c.Run(func(r *simrt.Rank) error {
					grads := gradTensors(r.ID, sizes)
					s := NewSyncer(r, g, "grad_sync", cfg)
					for _, t := range grads {
						s.Add(t, int64(4*len(t)))
					}
					s.Flush()
					shards := s.Wait()
					outs[r.ID] = rankOut{grads: grads, shards: shards}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}

				for rank, out := range outs {
					// Owned shard geometry must match OwnedPartition.
					if got, want := ownedTotal(out.shards), OwnedCount(part[rank]); got != want {
						t.Fatalf("rank %d owns %d elems, OwnedPartition says %d", rank, got, want)
					}
					// Owned positions are bit-identical to the blocking sum.
					for _, sh := range out.shards {
						for i, v := range sh.Data {
							if math.Float32bits(v) != math.Float32bits(ref[sh.Lo+i]) {
								t.Fatalf("rank %d shard [%d,%d) diverges at stream offset %d",
									rank, sh.Lo, sh.Hi, sh.Lo+i)
							}
						}
					}
					// Stage 0/1 all-reduce writes every position back.
					if stage <= 1 {
						off := 0
						for _, grad := range out.grads {
							for i, v := range grad {
								if math.Float32bits(v) != math.Float32bits(ref[off+i]) {
									t.Fatalf("rank %d stage %d: position %d not reduced in place", rank, stage, off+i)
								}
							}
							off += len(grad)
						}
					}
				}

				// The owned shards tile the full stream across members.
				covered := make([]int, total)
				for rank := range outs {
					for _, sh := range outs[rank].shards {
						for i := sh.Lo; i < sh.Hi; i++ {
							covered[i]++
						}
					}
				}
				wantCover := 1
				if stage == 0 {
					wantCover = world
				}
				for i, n := range covered {
					if n != wantCover {
						t.Fatalf("stream offset %d covered %d times, want %d", i, n, wantCover)
					}
				}
			})
		}
	}
}

// TestOwnedPartitionDisjointCovering pins the static geometry: for
// stages 1/2 the per-member ranges are disjoint and cover the stream for
// any bucket size, and stage 0 gives every member everything.
func TestOwnedPartitionDisjointCovering(t *testing.T) {
	sizes := []int{7, 5, 19}
	total := 31
	for _, stage := range []int{1, 2} {
		for _, bb := range []int64{0, 4, 8, 40, 1000} {
			part := OwnedPartition(Config{Stage: stage, BucketBytes: bb}, 4, sizes, 4)
			covered := make([]int, total)
			for _, ranges := range part {
				for _, rg := range ranges {
					if rg.Lo < 0 || rg.Hi > total || rg.Lo >= rg.Hi {
						t.Fatalf("stage %d bucket %d: bad range %+v", stage, bb, rg)
					}
					for i := rg.Lo; i < rg.Hi; i++ {
						covered[i]++
					}
				}
			}
			for i, n := range covered {
				if n != 1 {
					t.Fatalf("stage %d bucket %d: offset %d covered %d times", stage, bb, i, n)
				}
			}
		}
	}
	part := OwnedPartition(Config{Stage: 0}, 3, sizes, 4)
	for i, ranges := range part {
		if len(ranges) != 1 || ranges[0] != (Range{0, total}) {
			t.Fatalf("stage 0 member %d owns %+v, want the full stream", i, ranges)
		}
	}
}

// TestSyncerSymbolicOverlap pins the timing contract in symbolic mode:
// bucketed syncs issued before compute are hidden behind it, and the
// overlapped trace carries the full sync duration.
func TestSyncerSymbolicOverlap(t *testing.T) {
	const world = 4
	c := testCluster(world)
	g := c.WorldGroup()
	const bytes = 32 << 20
	arCost := c.Net.AllReduce(g.Ranks(), bytes).Seconds
	err := c.Run(func(r *simrt.Rank) error {
		s := NewSyncer(r, g, "grad_sync", Config{Stage: 1, BucketBytes: bytes})
		s.Add(nil, 4*bytes) // four full buckets
		s.Flush()
		r.Compute("bwd", 16*arCost) // plenty of cover
		before := r.Clock
		if shards := s.Wait(); shards != nil {
			return fmt.Errorf("symbolic wait returned shards")
		}
		if r.Clock != before {
			return fmt.Errorf("covered sync charged %.9fs", r.Clock-before)
		}
		if got := r.Trace.OverlappedTotal("grad_sync"); got <= 0 {
			return fmt.Errorf("no overlapped span recorded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSyncerTinyBucketsIssueMany checks that a bucket budget below the
// element size still makes progress (one element per bucket) instead of
// spinning, and that stage-2 byte accounting sums to the stream size.
func TestSyncerTinyBuckets(t *testing.T) {
	const world = 2
	c := testCluster(world)
	g := c.WorldGroup()
	err := c.Run(func(r *simrt.Rank) error {
		s := NewSyncer(r, g, "gs", Config{Stage: 2, BucketBytes: 4})
		grad := []float32{float32(r.ID), float32(r.ID) + 1, float32(r.ID) + 2}
		s.Add(grad, 12)
		s.Flush()
		shards := s.Wait()
		// 3 single-element buckets over 2 ranks: member 0 owns each
		// bucket's single element (ShardRange(1,2,0) = [0,1)).
		wantOwned := 3
		if g.IndexOf(r.ID) == 1 {
			wantOwned = 0
		}
		if got := ownedTotal(shards); got != wantOwned {
			return fmt.Errorf("rank %d owns %d elems, want %d", r.ID, got, wantOwned)
		}
		for _, sh := range shards {
			want := float32(sh.Lo) + 0 + float32(sh.Lo) + 1 // sum over both ranks
			if sh.Data[0] != want {
				return fmt.Errorf("shard at %d = %v, want %v", sh.Lo, sh.Data[0], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func ownedTotal(shards []Shard) int {
	n := 0
	for _, sh := range shards {
		n += sh.Hi - sh.Lo
	}
	return n
}

// FuzzOwnedPartition checks the static geometry against ShardRange for any
// stage, bucket size, group size and three tensor sizes: at stage 0 every
// member owns the whole stream; at stages 1/2 member i owns
// ShardRange(len, p, i) of each BucketBytes bucket, in stream order, and
// every stream offset has exactly one owner. Seeded from
// TestOwnedPartitionDisjointCovering and the Syncer bucket table.
func FuzzOwnedPartition(f *testing.F) {
	for _, stage := range []uint8{0, 1, 2} {
		for _, bb := range []uint16{0, 4, 8, 40, 1000} {
			f.Add(stage, bb, uint8(4), uint8(7), uint8(5), uint8(19))
		}
		for _, bb := range []uint16{0, 4, 16, 52, 96} {
			f.Add(stage, bb, uint8(4), uint8(13), uint8(10), uint8(1))
		}
	}
	f.Fuzz(func(t *testing.T, stage uint8, bb uint16, p8, a, b, c uint8) {
		cfg := Config{Stage: int(stage % 3), BucketBytes: int64(bb)}
		p, sizes := max(int(p8), 1), []int{int(a), int(b), int(c)}
		total := int(a) + int(b) + int(c)
		part := OwnedPartition(cfg, p, sizes, 4)
		bucket := total
		if bb > 0 {
			bucket = max(int(bb)/4, 1)
		}
		owners := make([]int, total)
		for i, ranges := range part {
			var want []Range
			for lo := 0; lo < total; lo += bucket {
				if cfg.Stage == 0 {
					want = []Range{{0, total}}
					break
				}
				if sLo, sHi := simrt.ShardRange(min(bucket, total-lo), p, i); sLo < sHi {
					want = append(want, Range{lo + sLo, lo + sHi})
				}
			}
			if !slices.Equal(ranges, want) {
				t.Fatalf("%+v p=%d sizes %v: member %d owns %v, want %v", cfg, p, sizes, i, ranges, want)
			}
			for _, rg := range ranges {
				for k := rg.Lo; k < rg.Hi; k++ {
					owners[k]++
				}
			}
		}
		wantOwners := 1
		if cfg.Stage == 0 {
			wantOwners = p
		}
		for k, n := range owners {
			if n != wantOwners {
				t.Fatalf("%+v p=%d sizes %v: offset %d has %d owners", cfg, p, sizes, k, n)
			}
		}
	})
}
