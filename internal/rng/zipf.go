package rng

import "math"

// Zipf draws ranks in [0, n) with a Zipfian (power-law) popularity skew:
// rank 0 is the most popular, rank 1 the second most, and so on. This is
// the standard service-workload key distribution (YCSB's "zipfian"
// generator, after Gray et al., "Quickly generating billion-record
// synthetic databases", SIGMOD 1994).
//
// A Zipf value is immutable after New: all mutable state lives in the
// *Rand passed to Next, so one Zipf can be shared by any number of
// workers, each drawing through its own generator. The O(n) harmonic-sum
// precomputation happens once, in NewZipf.
type Zipf struct {
	n uint64
	// Gray et al. constants: alpha = 1/(1-theta), zetan = H_{n,theta}
	// (the generalized harmonic number), eta the interpolation factor.
	alpha, zetan, eta float64
	// half is 1 + 0.5^theta, the cumulative weight threshold of rank 1.
	half float64
}

// NewZipf builds a Zipfian distribution over [0, n) with skew parameter
// theta in [0, 1). theta = 0 degenerates to uniform; the classic "zipfian"
// skew is theta = 0.99 (YCSB's default), where ~10% of the ranks receive
// ~90% of the draws. It panics if n == 0 or theta is outside [0, 1).
func NewZipf(n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("rng: NewZipf with zero n")
	}
	if theta < 0 || theta >= 1 {
		panic("rng: NewZipf theta must be in [0, 1)")
	}
	z := &Zipf{n: n}
	zeta := func(m uint64) float64 {
		s := 0.0
		for i := uint64(1); i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z.zetan = zeta(n)
	zeta2 := z.zetan
	if n > 2 {
		zeta2 = zeta(2)
	}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

// Next draws the next rank in [0, n) using r as the entropy source.
func (z *Zipf) Next(r *Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}
