package mpi

import "sort"

// Group is an ordered set of world ranks, mirroring MPI_Group. The position
// of a world rank in the slice is its rank within the group.
type Group struct {
	ranks []int // world ranks in group-rank order
}

// NewGroup builds a group from world ranks in the given order. The caller
// must not mutate the slice afterwards.
func NewGroup(worldRanks []int) *Group {
	return &Group{ranks: worldRanks}
}

// Size returns the number of members.
func (g *Group) Size() int { return len(g.ranks) }

// WorldRank returns the world rank of group rank i.
func (g *Group) WorldRank(i int) int { return g.ranks[i] }

// WorldRanks returns the members in group-rank order. Callers must treat the
// result as read-only.
func (g *Group) WorldRanks() []int { return g.ranks }

// SortedWorldRanks returns the members sorted ascending. Two groups that are
// MPI_SIMILAR (same members, any order) have equal sorted slices; the
// collective-clock ggid is computed from this canonical form.
func (g *Group) SortedWorldRanks() []int {
	s := make([]int, len(g.ranks))
	copy(s, g.ranks)
	sort.Ints(s)
	return s
}
