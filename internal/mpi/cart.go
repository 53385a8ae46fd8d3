package mpi

import "sort"

// Cart is Cartesian-topology coordinate math over ranks 0..n-1 (row-major,
// like MPI_Cart_create with reorder=false). It is purely local.
type Cart struct {
	Dims     []int
	Periodic []bool
}

// Coords returns the Cartesian coordinates of a comm rank (row-major, like
// MPI_Cart_coords).
func (t *Cart) Coords(rank int) []int {
	out := make([]int, len(t.Dims))
	for i := len(t.Dims) - 1; i >= 0; i-- {
		out[i] = rank % t.Dims[i]
		rank /= t.Dims[i]
	}
	return out
}

// Rank returns the comm rank at the given coordinates, applying periodic
// wrapping; it returns -1 if a non-periodic coordinate is out of range
// (MPI_PROC_NULL analog).
func (t *Cart) Rank(coords []int) int {
	rank := 0
	for i, c := range coords {
		d := t.Dims[i]
		if c < 0 || c >= d {
			if !t.Periodic[i] {
				return -1
			}
			c = ((c % d) + d) % d
		}
		rank = rank*d + c
	}
	return rank
}

// DimsCreate factors n processes into ndims balanced dimensions
// (MPI_Dims_create): the most-square decomposition with dimensions in
// non-increasing order.
func DimsCreate(n, ndims int) []int {
	dims := make([]int, ndims)
	for i := range dims {
		dims[i] = 1
	}
	// Repeatedly split off the largest prime factor onto the smallest dim.
	factors := primeFactors(n)
	sort.Sort(sort.Reverse(sort.IntSlice(factors)))
	for _, f := range factors {
		mi := 0
		for i := 1; i < ndims; i++ {
			if dims[i] < dims[mi] {
				mi = i
			}
		}
		dims[mi] *= f
	}
	sort.Sort(sort.Reverse(sort.IntSlice(dims)))
	return dims
}

func primeFactors(n int) []int {
	var out []int
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			out = append(out, f)
			n /= f
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	return out
}
