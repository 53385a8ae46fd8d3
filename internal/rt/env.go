package rt

import (
	"errors"
	"fmt"
	"sort"

	"mana/internal/ckpt"
	"mana/internal/core"
	"mana/internal/mpi"
	"mana/internal/netmodel"
)

// WorldVID is the virtual id of MPI_COMM_WORLD.
const WorldVID = 0

// errTerminated unwinds a rank goroutine after a checkpoint-and-exit
// capture. It is recovered by the runner; applications never see it.
var errTerminated = errors.New("rt: rank terminated by checkpoint")

// Env is one rank's execution environment: the MPI-facing API applications
// program against. Every call is interposed by the active checkpointing
// protocol, exactly as MANA's wrapper stubs interpose on a real MPI library.
type Env struct {
	p       *mpi.Proc
	proto   ckpt.Protocol
	wrapped bool // the protocol interposes on point-to-point calls (all but native)
	coord   *ckpt.Coordinator
	app     App

	comms   []*ckpt.CommInfo
	reqs    []reqEntry // outstanding requests in issue order (ascending id)
	nextReq int

	// call is the one collective the rank has in flight through the
	// protocol; exec, start and describe are its three views, bound once so
	// that routing a call through the Protocol interface allocates nothing.
	call     collCall
	exec     func()
	start    func() *mpi.Request
	describe func() *ckpt.Descriptor

	inSetup         bool
	enforceContract bool
	blockingInStep  int
}

// reqEntry tracks one outstanding request.
type reqEntry struct {
	id   int
	req  *mpi.Request
	recv ckpt.RecvDesc // re-post info for p2p receives
	p2p  bool          // recv is meaningful
	// doneBoundaries counts step boundaries this entry has crossed while
	// complete and unwaited; stepBoundary collects it on the second one.
	doneBoundaries int
}

// collCall is a collective as the application issued it: what to execute or
// initiate now, and what to re-issue after a restart if the rank parks in
// front of it.
type collCall struct {
	ci      *ckpt.CommInfo
	kind    netmodel.CollKind
	op      mpi.Op
	root    int
	in, out string // named buffers ("" for none)
	size    int    // bench: per-rank payload size of a size-only collective
	bench   bool
}

func newEnv(p *mpi.Proc, proto ckpt.Protocol, coord *ckpt.Coordinator, app App, enforce bool) *Env {
	e := &Env{
		p: p, proto: proto, coord: coord, app: app,
		wrapped:         proto.Name() != "native",
		enforceContract: enforce,
	}
	e.exec, e.start, e.describe = e.execCall, e.startCall, e.describeCall
	world := p.World().WorldComm(p.Rank())
	e.comms = append(e.comms, commInfoOf(world, WorldVID))
	proto.RegisterComm(e.comms[0])
	return e
}

func commInfoOf(c *mpi.Comm, vid int) *ckpt.CommInfo {
	members := c.Group().SortedWorldRanks()
	return &ckpt.CommInfo{
		Comm:    c,
		Ggid:    core.GgidOf(members),
		Members: members,
		VID:     vid,
	}
}

// Rank returns the caller's world rank.
func (e *Env) Rank() int { return e.p.Rank() }

// Size returns the world size.
func (e *Env) Size() int { return e.p.World().N }

// Now returns the rank's current virtual time in seconds.
func (e *Env) Now() float64 { return e.p.Clk.Now() }

// Compute models d seconds of application computation.
func (e *Env) Compute(d float64) { e.p.Compute(d) }

// CheckpointPending reports whether a checkpoint request is outstanding
// (the drain protocol is running but this rank has not parked yet). The
// fault-injection conformance probes use it to time a simulated rank death
// against the drain window; applications may use it to schedule
// checkpoint-friendly work.
func (e *Env) CheckpointPending() bool { return e.coord.Pending() }

// BlockUntilAbort simulates a dead rank: the caller blocks, producing no
// further activity, until the world is torn down — by the deadlock watchdog
// or a failed peer — and then unwinds via the usual abort panic (recovered
// by the runner). It never returns normally. Only fault-injection tests
// should call this.
func (e *Env) BlockUntilAbort() {
	e.p.SetWaitSite("fault-injected dead rank")
	e.p.WaitUntil(func() bool { return false })
}

// comm resolves a virtual communicator id.
func (e *Env) comm(vid int) *ckpt.CommInfo {
	if vid < 0 || vid >= len(e.comms) || e.comms[vid] == nil {
		panic(fmt.Sprintf("rt: rank %d: unknown communicator vid %d", e.p.Rank(), vid))
	}
	return e.comms[vid]
}

// CommRank returns the caller's rank within the communicator.
func (e *Env) CommRank(vid int) int { return e.comm(vid).Comm.Rank() }

// CommSize returns the communicator's size.
func (e *Env) CommSize(vid int) int { return e.comm(vid).Comm.Size() }

// Split creates a sub-communicator (MPI_Comm_split) and returns its virtual
// id, or -1 for callers passing a negative color (MPI_UNDEFINED).
// Communicator creation is restricted to Setup so that restart can rebuild
// the same communicators by replaying Setup.
func (e *Env) Split(vid, color, key int) int {
	if !e.inSetup {
		panic(fmt.Sprintf("rt: rank %d: Split outside Setup (communicators must be created during Setup)", e.p.Rank()))
	}
	sub := e.comm(vid).Comm.Split(color, key)
	if sub == nil {
		return -1
	}
	nvid := len(e.comms)
	ci := commInfoOf(sub, nvid)
	e.comms = append(e.comms, ci)
	e.proto.RegisterComm(ci)
	return nvid
}

// buf resolves a named buffer region; ln <= 0 means "to the end".
func (e *Env) buf(id string, off, ln int) []byte {
	b := e.app.Buffer(id)
	if b == nil {
		panic(fmt.Sprintf("rt: rank %d: unknown buffer %q", e.p.Rank(), id))
	}
	if ln <= 0 {
		return b[off:]
	}
	return b[off : off+ln]
}

// chargeP2PWrapper charges the interposition cost of a wrapped
// point-to-point call. MANA wraps every MPI function, not just collectives;
// the native baseline runs unwrapped.
func (e *Env) chargeP2PWrapper() {
	if !e.wrapped {
		return
	}
	e.p.Ct.WrapperCalls++
	e.p.Clk.Advance(e.p.World().Model.P.WrapperCost)
}

// Send sends data to comm rank dst with the given tag (eager, never blocks).
func (e *Env) Send(vid, dst, tag int, data []byte) {
	e.chargeP2PWrapper()
	e.comm(vid).Comm.Send(dst, tag, data)
	if e.coord.Pending() {
		// A send may complete a parked peer's pending receive.
		e.coord.Poke()
	}
}

// Irecv posts a receive for (src, tag) into the named buffer region and
// returns a request id. src may be mpi.AnySource, tag may be mpi.AnyTag.
func (e *Env) Irecv(vid, src, tag int, bufID string, off, ln int) int {
	e.chargeP2PWrapper()
	region := e.buf(bufID, off, ln)
	req := e.comm(vid).Comm.Irecv(src, tag, region)
	return e.addReq(reqEntry{req: req, p2p: true, recv: ckpt.RecvDesc{
		CommVID: vid, Src: src, Tag: tag, BufID: bufID, Off: off, Len: len(region),
	}})
}

func (e *Env) addReq(en reqEntry) int {
	en.id = e.nextReq
	e.nextReq++
	e.reqs = append(e.reqs, en)
	return en.id
}

var siteWaitall = "waitall"

// WaitAll waits for the given request ids (all outstanding requests if none
// are given). It is a blocking batch: at most one per Step, as the final
// action. While a checkpoint is pending the wait parks through the protocol.
func (e *Env) WaitAll(ids ...int) {
	e.noteBlocking()
	if len(ids) == 0 {
		for i := range e.reqs {
			e.wait(&e.reqs[i])
		}
		e.reqs = e.reqs[:0]
		return
	}
	for _, id := range ids {
		i := sort.Search(len(e.reqs), func(i int) bool { return e.reqs[i].id >= id })
		if i == len(e.reqs) || e.reqs[i].id != id {
			continue // already completed and collected
		}
		e.wait(&e.reqs[i])
		e.reqs = append(e.reqs[:i], e.reqs[i+1:]...)
	}
}

// wait completes one request — parking through the protocol whenever a
// checkpoint is pending — synchronizes the clock to it and collects it: the
// entry's request becomes nil (which reads as done), and a receive goes back
// to the simulator's free list. A collective request does not: the
// protocol's drain list may still hold it.
func (e *Env) wait(en *reqEntry) {
	req := en.req
	for !req.Done() {
		if e.coord.Pending() {
			desc := &ckpt.Descriptor{Kind: ckpt.ParkInWait}
			if out := e.proto.HoldAtWait(desc, req.Done); out == ckpt.Terminated {
				panic(errTerminated)
			}
			continue
		}
		// Block until the request completes — or a checkpoint request
		// arrives, in which case the wait must become park-aware (the
		// peer that would complete this request may itself park).
		e.p.WaitUntilAt(&siteWaitall, func() bool { return req.Done() || e.coord.Pending() })
	}
	req.Wait() // completed: synchronize the clock and collect status
	en.req = nil
	if en.p2p {
		req.Free()
	}
}

// pendingRecvDescs returns descriptors for incomplete posted receives; the
// coordinator calls it at capture time (the rank is parked).
func (e *Env) pendingRecvDescs() []ckpt.RecvDesc {
	var out []ckpt.RecvDesc
	for i := range e.reqs {
		if en := &e.reqs[i]; en.p2p && !en.req.Done() {
			out = append(out, en.recv)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BufID != out[j].BufID {
			return out[i].BufID < out[j].BufID
		}
		return out[i].Off < out[j].Off
	})
	return out
}

// noteBlocking enforces the one-blocking-batch-per-step contract when
// checkpointing is enabled.
func (e *Env) noteBlocking() {
	if e.inSetup {
		return
	}
	e.blockingInStep++
	if e.enforceContract && e.blockingInStep > 1 {
		panic(fmt.Sprintf("rt: rank %d: multiple blocking MPI batches in one Step "+
			"(checkpointable apps must make the blocking batch the step's final action)", e.p.Rank()))
	}
}

// stepBoundary resets per-step accounting and retires completed receives the
// application abandoned. Without this the request table grows without bound
// in programs that post receives satisfied by matching sends rather than an
// explicit WaitAll. Only p2p receives are pruned, and only after surviving a
// full extra step completed-and-unwaited: a receive posted in one step and
// waited in the next (the widest overlap the one-blocking-batch contract
// leaves room for) still gets its Wait — and with it the clock
// synchronization to the arrival time — while a fire-and-forget receive is
// collected one boundary later. Non-blocking collective initiations are
// never pruned; their deferred WaitAll is the standard overlap pattern.
func (e *Env) stepBoundary() {
	e.blockingInStep = 0
	kept := e.reqs[:0]
	for _, en := range e.reqs {
		if en.p2p && en.req.Done() {
			if en.doneBoundaries > 0 {
				en.req.Free()
				continue
			}
			en.doneBoundaries++
		}
		kept = append(kept, en)
	}
	e.reqs = kept
}

// collective routes one blocking collective through the protocol.
func (e *Env) collective(call collCall) {
	e.noteBlocking()
	e.call = call
	if out := e.proto.Collective(call.ci, e.describe, e.exec); out == ckpt.Terminated {
		panic(errTerminated)
	}
}

// initiate routes a non-blocking collective initiation through the protocol.
func (e *Env) initiate(call collCall) int {
	e.call = call
	return e.addReq(reqEntry{req: e.proto.Initiate(call.ci, e.start)})
}

// callBufs resolves the call's named buffers on the ranks that use them.
func (e *Env) callBufs() (in, out []byte) {
	c := &e.call
	useIn, useOut := bufsUsed(c.kind, c.ci.Comm.Rank() == c.root)
	if c.in != "" && useIn {
		in = e.buf(c.in, 0, 0)
	}
	if c.out != "" && useOut {
		out = e.buf(c.out, 0, 0)
	}
	return in, out
}

// bufsUsed reports whether a rank resolves a collective's in and out
// buffers: a Scatter's in buffer and a Gather's out buffer exist on the
// root only.
func bufsUsed(kind netmodel.CollKind, isRoot bool) (in, out bool) {
	return kind != netmodel.Scatter || isRoot, kind != netmodel.Gather || isRoot
}

// execCall performs the call in flight: the result lands in the out buffer.
func (e *Env) execCall() {
	c := &e.call
	if c.bench {
		c.ci.Comm.CollectiveSized(c.kind, c.root, c.size)
		return
	}
	in, out := e.callBufs()
	c.ci.Comm.Collective(c.kind, c.root, c.op, in, out)
}

// startCall initiates the call in flight.
func (e *Env) startCall() *mpi.Request {
	c := &e.call
	if c.bench {
		return c.ci.Comm.ICollectiveSized(c.kind, c.root, c.size)
	}
	in, out := e.callBufs()
	return c.ci.Comm.ICollective(c.kind, c.root, c.op, in, out)
}

// describeCall builds the restart descriptor of the call in flight. The
// protocols ask for it only when the rank parks in front of the call.
func (e *Env) describeCall() *ckpt.Descriptor {
	c := &e.call
	return &ckpt.Descriptor{
		Kind: ckpt.ParkPreCollective,
		Coll: &ckpt.CollDesc{
			CommVID: c.ci.VID, Kind: int(c.kind), Op: int(c.op), Root: c.root,
			InBufID: c.in, OutBufID: c.out, VirtSize: c.size, Bench: c.bench,
		},
	}
}

// Barrier executes MPI_Barrier on the communicator.
func (e *Env) Barrier(vid int) {
	e.collective(collCall{ci: e.comm(vid), kind: netmodel.Barrier})
}

// Bcast broadcasts the named buffer from root (in place on non-roots).
func (e *Env) Bcast(vid, root int, bufID string) {
	e.collective(collCall{ci: e.comm(vid), kind: netmodel.Bcast, root: root, in: bufID, out: bufID})
}

// Allreduce reduces the named buffer in place across the communicator.
func (e *Env) Allreduce(vid int, op mpi.Op, bufID string) {
	e.collective(collCall{ci: e.comm(vid), kind: netmodel.Allreduce, op: op, in: bufID, out: bufID})
}

// Reduce reduces the named buffer to the root (in place at the root).
func (e *Env) Reduce(vid, root int, op mpi.Op, bufID string) {
	e.collective(collCall{ci: e.comm(vid), kind: netmodel.Reduce, op: op, root: root, in: bufID, out: bufID})
}

// Allgather gathers equal contributions from all ranks into the out buffer.
func (e *Env) Allgather(vid int, inBufID, outBufID string) {
	e.collective(collCall{ci: e.comm(vid), kind: netmodel.Allgather, in: inBufID, out: outBufID})
}

// Alltoall exchanges equal blocks of the named buffer (in place).
func (e *Env) Alltoall(vid int, bufID string) {
	e.collective(collCall{ci: e.comm(vid), kind: netmodel.Alltoall, in: bufID, out: bufID})
}

// Gather gathers contributions to the root's out buffer.
func (e *Env) Gather(vid, root int, inBufID, outBufID string) {
	e.collective(collCall{ci: e.comm(vid), kind: netmodel.Gather, root: root, in: inBufID, out: outBufID})
}

// Scatter distributes the root's in buffer in equal blocks to out buffers.
func (e *Env) Scatter(vid, root int, inBufID, outBufID string) {
	e.collective(collCall{ci: e.comm(vid), kind: netmodel.Scatter, root: root, in: inBufID, out: outBufID})
}

// Scan computes the inclusive prefix reduction of the named buffer in place
// (MPI_Scan).
func (e *Env) Scan(vid int, op mpi.Op, bufID string) {
	e.collective(collCall{ci: e.comm(vid), kind: netmodel.Scan, op: op, in: bufID, out: bufID})
}

// ReduceScatter reduces the named buffer across the communicator and
// scatters equal blocks; the caller's block lands at the front of the
// buffer (MPI_Reduce_scatter_block).
func (e *Env) ReduceScatter(vid int, op mpi.Op, bufID string) {
	e.collective(collCall{ci: e.comm(vid), kind: netmodel.ReduceScatter, op: op, in: bufID, out: bufID})
}

// Ibarrier initiates a non-blocking barrier and returns a request id.
func (e *Env) Ibarrier(vid int) int {
	return e.initiate(collCall{ci: e.comm(vid), kind: netmodel.Barrier})
}

// Ibcast initiates a non-blocking broadcast of the named buffer.
func (e *Env) Ibcast(vid, root int, bufID string) int {
	return e.initiate(collCall{ci: e.comm(vid), kind: netmodel.Bcast, root: root, in: bufID, out: bufID})
}

// Iallreduce initiates a non-blocking allreduce from in to out buffers.
func (e *Env) Iallreduce(vid int, op mpi.Op, inBufID, outBufID string) int {
	return e.initiate(collCall{ci: e.comm(vid), kind: netmodel.Allreduce, op: op, in: inBufID, out: outBufID})
}

// Iallgather initiates a non-blocking allgather.
func (e *Env) Iallgather(vid int, inBufID, outBufID string) int {
	return e.initiate(collCall{ci: e.comm(vid), kind: netmodel.Allgather, in: inBufID, out: outBufID})
}

// Ialltoall initiates a non-blocking all-to-all exchange.
func (e *Env) Ialltoall(vid int, inBufID, outBufID string) int {
	return e.initiate(collCall{ci: e.comm(vid), kind: netmodel.Alltoall, in: inBufID, out: outBufID})
}

// BenchCollective executes a size-only blocking collective: it costs
// exactly what a data-carrying collective of the given per-rank payload
// size would, without moving bytes. Micro-benchmarks use it to model large
// messages without allocating them.
func (e *Env) BenchCollective(vid int, kind netmodel.CollKind, root, size int) {
	e.collective(collCall{ci: e.comm(vid), kind: kind, root: root, size: size, bench: true})
}

// IBenchCollective initiates a size-only non-blocking collective.
func (e *Env) IBenchCollective(vid int, kind netmodel.CollKind, root, size int) int {
	return e.initiate(collCall{ci: e.comm(vid), kind: kind, root: root, size: size, bench: true})
}

// execCollDesc re-issues a pending collective from its restart descriptor,
// through the call describeCall recorded it from. resumePending has checked
// its kind.
func (e *Env) execCollDesc(d *ckpt.CollDesc) {
	e.collective(collCall{
		ci: e.comm(d.CommVID), kind: netmodel.CollKind(d.Kind), op: mpi.Op(d.Op), root: d.Root,
		in: d.InBufID, out: d.OutBufID, size: d.VirtSize, bench: d.Bench,
	})
}

// repostRecvs re-posts pending receives recorded in a restart image.
func (e *Env) repostRecvs(descs []ckpt.RecvDesc) []int {
	ids := make([]int, 0, len(descs))
	for _, d := range descs {
		ids = append(ids, e.Irecv(d.CommVID, d.Src, d.Tag, d.BufID, d.Off, d.Len))
	}
	return ids
}
