package tensor

import (
	"math"
	"testing"
)

// forEachPolarBody runs f once per body of polarScale this host can run:
// the Go loop, then, where init selected it, the AVX2 body. The init-time
// choice is restored afterwards.
func forEachPolarBody(f func(body string)) {
	host := polarVec
	defer func() { polarVec = host }()
	polarVec = false
	f("go")
	if host {
		polarVec = true
		f("avx2")
	}
}

// polarInputs returns n values of s as the polar method draws them (u, v
// uniform in [-1, 1), kept when 0 < u²+v² < 1), then edge values: the
// smallest s a draw can give (2^-104), the largest below one, √2/2 (the
// log's f1 threshold) with its two neighbours at several exponents, and
// the powers of two in range.
func polarInputs(n int) []float64 {
	r := NewRNG(2024)
	s := make([]float64, 0, n+256)
	for len(s) < n {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		if x := u*u + v*v; x > 0 && x < 1 {
			s = append(s, x)
		}
	}
	s = append(s, 0x1p-104, math.Nextafter(1, 0))
	for e := 0; e <= 60; e += 4 {
		h := math.Ldexp(math.Sqrt2/2, -e)
		s = append(s, h, math.Nextafter(h, 0), math.Nextafter(h, 1))
	}
	for e := 1; e <= 104; e++ {
		s = append(s, math.Ldexp(1, -e))
	}
	return s
}

// TestPolarScaleMatchesScalar holds every body of polarScale to norm's
// multiplier, math.Sqrt(-2*math.Log(s)/s), bit for bit, over a million
// drawn values and the edge values, at every length mod 4 so the AVX2
// body's Go tail runs too.
func TestPolarScaleMatchesScalar(t *testing.T) {
	in := polarInputs(1 << 20)
	want := make([]float64, len(in))
	for i, x := range in {
		want[i] = math.Sqrt(-2 * math.Log(x) / x)
	}
	forEachPolarBody(func(body string) {
		for cut := range 4 {
			got := append([]float64(nil), in[:len(in)-cut]...)
			polarScale(got)
			for i, g := range got {
				if math.Float64bits(g) != math.Float64bits(want[i]) {
					t.Fatalf("body=%s len=%d: s=%b (%v) gives %v, want %v", body, len(got), in[i], in[i], g, want[i])
				}
			}
		}
	})
}

// blockNormals draws n normals through NormBlocks, each reserving until
// it is full, as a long caller does. It resolves at least one block, so
// n = 0 opens and resolves an empty one.
func blockNormals(r *RNG, n int) []float64 {
	var b NormBlock
	out := make([]float64, 0, n)
	for {
		b.Open(r)
		for k := len(out); k < n && !b.Full(); k++ {
			b.Reserve(r)
		}
		if out = append(out, b.Resolve(r)...); len(out) == n {
			return out
		}
	}
}

// TestNormBlockMatchesNorm requires the block sampler to give norm's
// normals and leave the generator's whole state (spare and stale spare
// included) as the same number of norm calls does, for block-boundary
// lengths, with and without a spare carried in, on every polar body.
// Randn is held to std·float32(norm()) the same way.
func TestNormBlockMatchesNorm(t *testing.T) {
	const c = NormBlockLen
	forEachPolarBody(func(body string) {
		for _, n := range []int{0, 1, 2, 3, c - 1, c, c + 1, 10*c + 1} {
			for _, carry := range []bool{false, true} {
				ref, got := NewRNG(uint64(n)+11), NewRNG(uint64(n)+11)
				if carry {
					ref.norm()
					got.norm()
				}
				want := make([]float64, n)
				for i := range want {
					want[i] = ref.norm()
				}
				normals := blockNormals(got, n)
				for i := range want {
					if math.Float64bits(normals[i]) != math.Float64bits(want[i]) {
						t.Fatalf("body=%s n=%d carry=%v: normal %d = %v, want %v", body, n, carry, i, normals[i], want[i])
					}
				}
				if got.State() != ref.State() {
					t.Fatalf("body=%s n=%d carry=%v: state %+v, want %+v", body, n, carry, got.State(), ref.State())
				}

				ref.SetState(got.State())
				x := Randn(got, 0.5, n)
				for i, v := range x.Data {
					if w := 0.5 * float32(ref.norm()); math.Float32bits(v) != math.Float32bits(w) {
						t.Fatalf("body=%s n=%d carry=%v: Randn[%d] = %v, want %v", body, n, carry, i, v, w)
					}
				}
				if got.State() != ref.State() {
					t.Fatalf("body=%s n=%d carry=%v: state after Randn %+v, want %+v", body, n, carry, got.State(), ref.State())
				}
			}
		}
	})
}

// TestNormBlockInterleavesDraws reserves normals between other draws of
// the same generator and requires the stream norm gives with those draws
// in the same places.
func TestNormBlockInterleavesDraws(t *testing.T) {
	ref, got := NewRNG(5), NewRNG(5)
	var want []float64
	var b NormBlock
	b.Open(got)
	for i := range 40 {
		if i%3 == 0 {
			if ref.Uint64() != got.Uint64() {
				t.Fatalf("draw %d: uniform streams differ", i)
			}
		}
		want = append(want, ref.norm())
		b.Reserve(got)
	}
	for i, v := range b.Resolve(got) {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("normal %d = %v, want %v", i, v, want[i])
		}
	}
	if got.State() != ref.State() {
		t.Fatalf("state %+v, want %+v", got.State(), ref.State())
	}
}

// TestNormBlockFullPanics pins Reserve's refusal past the block's room.
func TestNormBlockFullPanics(t *testing.T) {
	var b NormBlock
	r := NewRNG(1)
	b.Open(r)
	for !b.Full() {
		b.Reserve(r)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reserve on a full block did not panic")
		}
	}()
	b.Reserve(r)
}

// norm returns a standard normal sample by Marsaglia's polar method, one
// sample at a time: the scalar reference NormBlock reproduces bit for bit
// (the library draws through NormBlock only).
func (r *RNG) norm() float64 {
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
