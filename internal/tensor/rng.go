package tensor

import "math"

// RNG is a small deterministic pseudo-random generator (splitmix64 core)
// used for reproducible weight initialisation and synthetic workload
// generation. Every experiment in the repository is seeded, so paper
// figures regenerate identically across runs.
type RNG struct {
	state uint64
	// cached second normal variate of Marsaglia's polar method
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// RNGState is a serialisable snapshot of an RNG, including the cached
// spare of the polar method so a restored generator reproduces the exact
// normal stream (dropping the spare would desynchronise every second
// normal draw).
type RNGState struct {
	State    uint64
	HasSpare bool
	Spare    float64
}

// State captures the generator's full state for checkpointing.
func (r *RNG) State() RNGState {
	return RNGState{State: r.state, HasSpare: r.hasSpare, Spare: r.spare}
}

// SetState restores a snapshot captured by State.
func (r *RNG) SetState(s RNGState) {
	r.state = s.State
	r.hasSpare = s.HasSpare
	r.spare = s.Spare
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormBlockLen is the number of normals a NormBlock always has room for.
const NormBlockLen = 2 * normBlockPairs

// normBlockPairs is the number of polar pairs a NormBlock holds.
const normBlockPairs = 64

// NormBlock draws a block of standard normals with the bits, the RNG
// draws and the final generator state of as many norm calls, and splits
// the polar method's work in two. Reserve makes a normal's uniform draws
// (two Float64s per attempt, rejected until 0 < s < 1) at the point in
// the RNG stream where norm would make them, so other draws may
// interleave; Resolve then runs sqrt(-2·log(s)/s) once over every pair
// of the block (polarScale: four pairs per AVX2 instruction where the
// CPU has it) and returns the normals in reservation order.
//
// Every call takes the block's generator rather than the block keeping
// it, so the generator does not escape to the heap; between Open and
// Resolve its spare is stale, so nothing else may draw normals from it.
// A NormBlock is a fixed-size value that lives on its user's stack.
type NormBlock struct {
	pairs int // pairs drawn
	carry int // 1 when the block opened on the generator's spare
	free  int // normals drawn (or carried) but not yet reserved: 0, 1 or 2
	// The normals in stream order: the carried spare, if any, at 0, then
	// pair p's u and v at carry+2p and carry+2p+1. Resolve scales them by
	// pair p's multiplier, which polarScale computes in place of s[p].
	val [2*normBlockPairs + 1]float64
	s   [normBlockPairs]float64
}

// Open starts an empty block on r.
func (b *NormBlock) Open(r *RNG) {
	b.pairs, b.carry, b.free = 0, 0, 0
	if r.hasSpare {
		b.val[0], b.carry, b.free = r.spare, 1, 1
	}
}

// Full reports whether the next Reserve would need a pair the block has
// no room for. A block that reserved fewer than NormBlockLen normals
// never is.
func (b *NormBlock) Full() bool {
	return b.free == 0 && b.pairs == normBlockPairs
}

// Reserve takes the next normal of the stream, drawing a new pair when
// every drawn normal is taken, as norm does. It panics on a full block.
func (b *NormBlock) Reserve(r *RNG) {
	if b.free == 0 {
		b.draw(r)
	}
	b.free--
}

// draw adds a pair to the stream: u and v uniform in [-1, 1), redrawn
// until 0 < s < 1 for s = u² + v², as norm draws them.
func (b *NormBlock) draw(r *RNG) {
	if b.pairs == normBlockPairs {
		panic("tensor: Reserve on a full NormBlock")
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	i := b.carry + 2*b.pairs
	b.val[i], b.val[i+1], b.s[b.pairs] = u, v, s
	b.pairs, b.free = b.pairs+1, 2
}

// Resolve computes the reserved normals, leaves the generator's spare as
// norm would (a pair's v not taken becomes the spare, and a taken one
// stays behind as the stale value RNGState carries), and returns the
// normals in reservation order. The slice aliases the block until its
// next Open.
func (b *NormBlock) Resolve(r *RNG) []float64 {
	m := b.s[:b.pairs]
	polarScale(m)
	val := b.val[b.carry : b.carry+2*b.pairs]
	for p, mp := range m {
		val[2*p] *= mp
		val[2*p+1] *= mp
	}
	if b.pairs > 0 {
		r.spare = val[2*b.pairs-1]
	}
	r.hasSpare = b.free > 0
	return b.val[:b.carry+2*b.pairs-b.free]
}

// polarScaleGo is polarScale's Go loop: s[i] becomes the polar method's
// multiplier sqrt(-2·log(s)/s), computed as norm computes it.
func polarScaleGo(s []float64) {
	for i, x := range s {
		s[i] = math.Sqrt(-2 * math.Log(x) / x)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Randn returns a tensor of the given shape filled with N(0, std²) samples.
func Randn(r *RNG, std float32, shape ...int) *Tensor {
	t := New(shape...)
	RandnInto(t, r, std)
	return t
}

// RandnInto is Randn into t, which is fully overwritten: the same draws
// in the same stream order.
func RandnInto(t *Tensor, r *RNG, std float32) {
	var b NormBlock
	for d := t.Data; len(d) > 0; d = d[min(len(d), NormBlockLen):] {
		b.Open(r)
		for range min(len(d), NormBlockLen) {
			b.Reserve(r)
		}
		for i, v := range b.Resolve(r) {
			d[i] = std * float32(v)
		}
	}
}
