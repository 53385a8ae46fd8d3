package apps

import "math"

// FFT is an iterative radix-2 Cooley-Tukey transform used by the VASP proxy
// (VASP's runtime is dominated by 3-D FFTs whose distributed transposes
// drive its extreme collective-call rate; paper §1, §5.4).

// fftPlan is the transform of one length and direction with everything that
// does not depend on the data tabulated:
//   - swaps: the bit-reversal permutation as the pairs (i, j), i < j, it
//     exchanges;
//   - stages: stages[k] is the twiddle sequence w, w·wl, w·wl², ... a
//     butterfly block of length 2<<k steps through, built by the
//     `w *= wl` recurrence;
//   - invN: 1/n for the inverse, exact because n is a power of two.
//
// Every output bit but a NaN's payload is the textbook loop's, which
// bit-reverses per call, walks each stage block by block and divides by
// complex(n, 0) (TestFFTPlanBitIdentical keeps it): a stage's butterflies
// are disjoint, so their order is free, and each takes the same operands
// and twiddle.
type fftPlan struct {
	inverse bool
	invN    float64
	swaps   [][2]int32
	stages  [][]complex128
}

// newFFTPlan tabulates the swaps and twiddles for power-of-two length n.
func newFFTPlan(n int, inverse bool) *fftPlan {
	if n&(n-1) != 0 {
		panic("apps: FFT length must be a power of two")
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	p := &fftPlan{inverse: inverse, invN: 1 / float64(n), swaps: make([][2]int32, 0, n/2)}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			p.swaps = append(p.swaps, [2]int32{int32(i), int32(j)})
		}
	}
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

// transform runs the plan in place over x, whose length must be the plan's.
func (p *fftPlan) transform(x []complex128) {
	n := len(x)
	for _, s := range p.swaps {
		x[s[0]], x[s[1]] = x[s[1]], x[s[0]]
	}
	for _, tw := range p.stages {
		half := len(tw)
		if n > 2*half*half {
			// More blocks than twiddles: load each twiddle once and walk it
			// across the blocks.
			for j, w := range tw {
				for i := j; i < n; i += 2 * half {
					u := x[i]
					v := x[i+half] * w
					x[i] = u + v
					x[i+half] = u - v
				}
			}
			continue
		}
		for i := 0; i < n; i += 2 * half {
			// Both halves re-sliced to len(tw) so that the loop carries no
			// bounds check.
			a := x[i : i+half][:len(tw)]
			b := x[i+half : i+2*half][:len(tw)]
			for j, w := range tw {
				u := a[j]
				v := b[j] * w
				a[j] = u + v
				b[j] = u - v
			}
		}
	}
	if p.inverse {
		// x[i] / complex(n, 0) as runtime.complex128div computes it: Smith's
		// branch with ratio 0/n = 0 and denominator n. The ·0 terms stay,
		// since they decide the sign of a zero and turn an infinity in the
		// other part into NaN; dividing by n and multiplying by the exact
		// 1/n round the same value once. When both parts come out NaN the
		// runtime patches infinities back in, so that case divides.
		for i, z := range x {
			re, im := real(z), imag(z)
			e := (re + im*0) * p.invN
			f := (im - re*0) * p.invN
			if e != e && f != f {
				x[i] = z / complex(float64(n), 0)
				continue
			}
			x[i] = complex(e, f)
		}
	}
}
