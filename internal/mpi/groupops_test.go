package mpi

import (
	"testing"
	"testing/quick"
)

func TestGroupSetOps(t *testing.T) {
	a := NewGroup([]int{0, 2, 4})
	b := NewGroup([]int{4, 5, 0})
	u := GroupUnion(a, b)
	if u.Size() != 4 || u.WorldRank(0) != 0 || u.WorldRank(3) != 5 {
		t.Fatalf("union wrong: %v", u.WorldRanks())
	}
	i := GroupIntersection(a, b)
	if i.Size() != 2 || i.WorldRank(0) != 0 || i.WorldRank(1) != 4 {
		t.Fatalf("intersection wrong: %v", i.WorldRanks())
	}
	d := GroupDifference(a, b)
	if d.Size() != 1 || d.WorldRank(0) != 2 {
		t.Fatalf("difference wrong: %v", d.WorldRanks())
	}
}

func TestGroupInclExcl(t *testing.T) {
	g := NewGroup([]int{10, 20, 30, 40})
	in := g.Incl([]int{3, 1})
	if in.Size() != 2 || in.WorldRank(0) != 40 || in.WorldRank(1) != 20 {
		t.Fatalf("incl wrong: %v", in.WorldRanks())
	}
	ex := g.Excl([]int{0, 2})
	if ex.Size() != 2 || ex.WorldRank(0) != 20 || ex.WorldRank(1) != 40 {
		t.Fatalf("excl wrong: %v", ex.WorldRanks())
	}
}

func TestTranslateRanksAndEqual(t *testing.T) {
	a := NewGroup([]int{5, 6, 7})
	b := NewGroup([]int{7, 5})
	tr := TranslateRanks(a, []int{0, 1, 2}, b)
	if tr[0] != 1 || tr[1] != -1 || tr[2] != 0 {
		t.Fatalf("translate wrong: %v", tr)
	}
	if !Equal(a, NewGroup([]int{5, 6, 7})) || Equal(a, b) {
		t.Fatal("equality wrong")
	}
}

// Property: union is commutative as a set, intersection ⊆ both.
func TestPropertyGroupAlgebra(t *testing.T) {
	f := func(xs, ys [5]uint8) bool {
		mk := func(vals [5]uint8) *Group {
			seen := map[int]bool{}
			var out []int
			for _, v := range vals {
				r := int(v % 16)
				if !seen[r] {
					seen[r] = true
					out = append(out, r)
				}
			}
			return NewGroup(out)
		}
		a, b := mk(xs), mk(ys)
		if !Similar(GroupUnion(a, b), GroupUnion(b, a)) {
			return false
		}
		inter := GroupIntersection(a, b)
		for _, r := range inter.WorldRanks() {
			if !a.Contains(r) || !b.Contains(r) {
				return false
			}
		}
		diff := GroupDifference(a, b)
		for _, r := range diff.WorldRanks() {
			if b.Contains(r) {
				return false
			}
		}
		// |A| = |A∩B| + |A\B|
		return a.Size() == inter.Size()+diff.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestCommCreate(t *testing.T) {
	runRanks(t, 6, 6, func(c *Comm) {
		sub := NewGroup([]int{1, 3, 5})
		nc := c.CommCreate(sub)
		if c.Rank()%2 == 0 {
			if nc != nil {
				t.Errorf("rank %d should not be a member", c.Rank())
			}
			return
		}
		if nc.Size() != 3 || nc.Rank() != (c.Rank()-1)/2 {
			t.Errorf("rank %d: comm create wrong: size %d rank %d", c.Rank(), nc.Size(), nc.Rank())
		}
		nc.Barrier()
	})
}

func TestSendrecv(t *testing.T) {
	runRanks(t, 4, 4, func(c *Comm) {
		me := c.Rank()
		n := c.Size()
		right := (me + 1) % n
		left := (me - 1 + n) % n
		buf := make([]byte, 1)
		st := c.Sendrecv(right, 9, []byte{byte(me)}, left, 9, buf)
		if int(buf[0]) != left || st.Source != left {
			t.Errorf("rank %d: sendrecv got %d from %d", me, buf[0], st.Source)
		}
		// PROC_NULL halves.
		st = c.Sendrecv(-1, 9, nil, -1, 9, buf)
		if st.Source != -1 {
			t.Errorf("proc-null sendrecv status %+v", st)
		}
	})
}

func TestWaitany(t *testing.T) {
	runRanks(t, 2, 2, func(c *Comm) {
		if c.Rank() == 0 {
			b1 := make([]byte, 1)
			b2 := make([]byte, 1)
			r1 := c.Irecv(1, 1, b1)
			r2 := c.Irecv(1, 2, b2)
			reqs := []*Request{r1, r2}
			idx, st := Waitany(reqs)
			// Waitany returns SOME completed request; index and status must
			// be consistent with each other.
			if idx != 0 && idx != 1 {
				t.Fatalf("waitany index %d", idx)
			}
			if st.Tag != idx+1 {
				t.Errorf("waitany idx %d but tag %d", idx, st.Tag)
			}
			Waitall(reqs)
			if int(b1[0]) != 1 || int(b2[0]) != 2 {
				t.Errorf("payloads wrong: %d %d", b1[0], b2[0])
			}
		} else {
			c.Send(0, 2, []byte{2})
			c.Send(0, 1, []byte{1})
		}
	})
}

func TestTestallAndProbe(t *testing.T) {
	runRanks(t, 2, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 5, []byte("abc"))
		case 1:
			st := c.Probe(0, 5)
			if st.Count != 3 || st.Source != 0 {
				t.Errorf("probe %+v", st)
			}
			buf := make([]byte, 3)
			req := c.Irecv(0, 5, buf)
			if !Testall(c.Proc(), []*Request{req}) {
				t.Error("testall false for a matched receive")
			}
			if Testall(c.Proc(), nil) != true {
				t.Error("empty testall")
			}
		}
	})
}
