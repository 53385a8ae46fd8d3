package mpi

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"sync"

	"mana/internal/netmodel"
)

// worldCommID is the well-known communicator id of MPI_COMM_WORLD.
const worldCommID uint64 = 1

// commCore is the part of a communicator shared by all member ranks: the
// group, the derived geometry, and the window of live collective instances.
type commCore struct {
	id    uint64
	w     *World
	group *Group
	geom  netmodel.Geometry

	// mu guards the window and every field of the slots in it. Ranks may lap
	// each other (a Bcast root does not wait for its receivers), so several
	// consecutive instances can be live at once.
	mu   sync.Mutex
	base uint64      // sequence number of live[0]
	live []*collSlot // instances base, base+1, ... that some member has yet to leave
	free []*collSlot // retired slots, reused with their buffers
}

func newCommCore(w *World, id uint64, g *Group) *commCore {
	return &commCore{id: id, w: w, group: g, geom: w.Model.GeometryOf(g.WorldRanks())}
}

// Comm is one rank's handle on a communicator. Handles are per-rank (they
// carry the local collective sequence cursor) and share a commCore.
type Comm struct {
	core    *commCore
	p       *Proc
	myRank  int    // rank within this communicator
	collSeq uint64 // local count of collective operations initiated
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the number of member ranks.
func (c *Comm) Size() int { return c.core.group.Size() }

// Group returns the communicator's group.
func (c *Comm) Group() *Group { return c.core.group }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(commRank int) int { return c.core.group.WorldRank(commRank) }

// deriveCommID computes the deterministic id of a child communicator created
// from parent at the parent's current collective sequence with the given
// discriminator (e.g. split color). All members compute the same value.
func deriveCommID(parentID uint64, seq uint64, disc int64, members []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], parentID)
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], seq)
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(disc))
	h.Write(b[:])
	for _, m := range members {
		binary.LittleEndian.PutUint64(b[:], uint64(m))
		h.Write(b[:])
	}
	id := h.Sum64()
	if id <= worldCommID { // keep clear of reserved ids
		id += 2
	}
	return id
}

// Split implements MPI_Comm_split: ranks supplying the same color form a new
// communicator; key orders ranks within it (ties broken by parent rank).
// Split is collective over the parent communicator. A negative color means
// MPI_UNDEFINED: the caller participates in the exchange but receives nil.
//
// Split is built on the simulator's own Allgather (an actual collective
// exchange with its usual cost), so communicator creation is visible to the
// interposition layer like any other collective if routed through it.
func (c *Comm) Split(color, key int) *Comm {
	seqAtCall := c.collSeq
	// Exchange (color, key) pairs.
	payload := make([]byte, 16)
	binary.LittleEndian.PutUint64(payload[0:8], uint64(int64(color)))
	binary.LittleEndian.PutUint64(payload[8:16], uint64(int64(key)))
	gathered := c.Allgather(payload)

	if color < 0 {
		return nil
	}
	// Collect members that chose my color, ordered by (key, parent rank).
	type member struct {
		parentRank int
		key        int
	}
	var members []member
	for i := 0; i < c.Size(); i++ {
		col := int(int64(binary.LittleEndian.Uint64(gathered[i*16 : i*16+8])))
		k := int(int64(binary.LittleEndian.Uint64(gathered[i*16+8 : i*16+16])))
		if col == color {
			members = append(members, member{parentRank: i, key: k})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].parentRank < members[j].parentRank
	})
	worldRanks := make([]int, len(members))
	myNewRank := -1
	for i, m := range members {
		worldRanks[i] = c.WorldRank(m.parentRank)
		if m.parentRank == c.myRank {
			myNewRank = i
		}
	}
	id := deriveCommID(c.core.id, seqAtCall, int64(color), worldRanks)
	core := c.core.w.internCore(id, worldRanks)
	return &Comm{core: core, p: c.p, myRank: myNewRank}
}

// internCore returns the shared commCore for id, creating it if this rank is
// the first member to arrive.
func (w *World) internCore(id uint64, worldRanks []int) *commCore {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cores == nil {
		w.cores = make(map[uint64]*commCore)
	}
	if core, ok := w.cores[id]; ok {
		return core
	}
	ranks := make([]int, len(worldRanks))
	copy(ranks, worldRanks)
	core := newCommCore(w, id, NewGroup(ranks))
	w.cores[id] = core
	return core
}
