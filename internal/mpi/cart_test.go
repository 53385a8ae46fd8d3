package mpi

import "testing"

func TestCartTopology(t *testing.T) {
	cart := &Cart{Dims: []int{3, 4}, Periodic: []bool{true, false}}
	for r := 0; r < 12; r++ {
		me := cart.Coords(r)
		if got := cart.Rank(me); got != r {
			t.Errorf("coords/rank roundtrip: %d -> %v -> %d", r, me, got)
		}
		// Periodic dimension wraps, non-periodic falls off the edge.
		if got := cart.Rank([]int{me[0] + 3, me[1]}); got != r {
			t.Errorf("rank %d: a full turn of the periodic dimension lands on %d", r, got)
		}
		if got := cart.Rank([]int{me[0] - 1, me[1]}); got < 0 {
			t.Errorf("rank %d: periodic neighbour is PROC_NULL", r)
		}
		if got := cart.Rank([]int{me[0], me[1] + 1}); (me[1] == 3) != (got == -1) {
			t.Errorf("rank %d at column %d: non-periodic neighbour %d", r, me[1], got)
		}
		if got := cart.Rank([]int{me[0], me[1] - 1}); (me[1] == 0) != (got == -1) {
			t.Errorf("rank %d at column %d: non-periodic neighbour %d", r, me[1], got)
		}
	}
}

func TestDimsCreate(t *testing.T) {
	cases := map[[2]int][]int{
		{12, 2}: {4, 3}, {16, 2}: {4, 4}, {8, 3}: {2, 2, 2},
		{7, 2}: {7, 1}, {1, 2}: {1, 1}, {24, 3}: {4, 3, 2},
	}
	for in, want := range cases {
		got := DimsCreate(in[0], in[1])
		prod := 1
		for _, d := range got {
			prod *= d
		}
		if prod != in[0] {
			t.Errorf("DimsCreate(%d,%d) = %v does not cover n", in[0], in[1], got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("DimsCreate(%d,%d) = %v, want %v", in[0], in[1], got, want)
				break
			}
		}
	}
}
