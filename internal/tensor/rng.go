package tensor

import "math"

// RNG is a small deterministic pseudo-random generator (splitmix64 core)
// used for reproducible weight initialisation and synthetic workload
// generation. Every experiment in the repository is seeded, so paper
// figures regenerate identically across runs.
type RNG struct {
	state uint64
	// cached second normal variate from the Box-Muller transform
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// RNGState is a serialisable snapshot of an RNG, including the cached
// Box-Muller spare so a restored generator reproduces the exact normal
// stream (dropping the spare would desynchronise every second Norm call).
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

// Norm returns a standard normal sample via the Box-Muller transform.
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
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
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
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
	for i := range t.Data {
		t.Data[i] = std * float32(r.Norm())
	}
	return t
}
