package sim

import "math"

// Rand is a small, fast, deterministic PRNG (splitmix64 core). Every
// stochastic element in the simulation draws from an explicitly seeded
// Rand so that experiment runs are reproducible bit-for-bit; math/rand's
// global state is never used.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Seed zero is remapped so
// the generator never gets stuck at zero.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0,n). n must be > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0,n). n must be > 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0,1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed value with mean 1.
func (r *Rand) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Jitter returns base scaled by a uniform factor in [1-f, 1+f]. It is used
// to add bounded run-to-run noise to cost constants so repeated experiment
// runs produce realistic (small) relative standard deviations like Table 4.
func (r *Rand) Jitter(base Time, f float64) Time {
	if f <= 0 {
		return base
	}
	scale := 1 + f*(2*r.Float64()-1)
	return Time(float64(base) * scale)
}

// Bytes fills b with random bytes.
func (r *Rand) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
