package apps

import "math"

// FFT is an iterative radix-2 Cooley-Tukey transform used by the VASP proxy
// (VASP's runtime is dominated by 3-D FFTs whose distributed transposes
// drive its extreme collective-call rate; paper §1, §5.4).

// fftPlan is the transform of one length and direction with its twiddle
// factors tabulated: stages[k] is the sequence w, w·wl, w·wl², ... a
// butterfly block of length 2<<k steps through. Each sequence is built by
// the same `w *= wl` recurrence the transform used to run per block, so the
// planned transform is bit-identical to it; what the table saves is a
// cos/sin pair per stage and the multiply chain per block on every call.
type fftPlan struct {
	inverse bool
	stages  [][]complex128
}

// newFFTPlan tabulates the twiddles for power-of-two length n.
func newFFTPlan(n int, inverse bool) *fftPlan {
	if n&(n-1) != 0 {
		panic("apps: FFT length must be a power of two")
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	p := &fftPlan{inverse: inverse}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := complex(math.Cos(ang), math.Sin(ang))
		tw := make([]complex128, length/2)
		w := complex(1, 0)
		for j := range tw {
			tw[j] = w
			w *= wl
		}
		p.stages = append(p.stages, tw)
	}
	return p
}

// fftForward computes the in-place forward DFT of a power-of-two-length
// complex vector.
func fftForward(x []complex128) { newFFTPlan(len(x), false).transform(x) }

// fftInverse computes the in-place inverse DFT (normalized by 1/N).
func fftInverse(x []complex128) { newFFTPlan(len(x), true).transform(x) }

// transform runs the plan in place over x, whose length must be the plan's.
func (p *fftPlan) transform(x []complex128) {
	n := len(x)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for _, tw := range p.stages {
		half := len(tw)
		for i := 0; i < n; i += 2 * half {
			for j, w := range tw {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
			}
		}
	}
	if p.inverse {
		scale := complex(float64(n), 0)
		for i := range x {
			x[i] /= scale
		}
	}
}
