package ckpt

import "mana/internal/mpi"

// Native is the no-checkpointing baseline: calls pass straight through with
// zero interposition cost. It is the "Native" series in the paper's figures.
type Native struct{}

// NewNative returns the native passthrough algorithm.
func NewNative() *Native { return &Native{} }

// Name implements Algorithm.
func (*Native) Name() string { return "native" }

// NewRank implements Algorithm.
func (*Native) NewRank(p *mpi.Proc, world *mpi.Comm) Protocol { return nativeRank{} }

// OnCheckpointRequest implements Algorithm; native jobs cannot checkpoint.
func (*Native) OnCheckpointRequest() {
	panic("ckpt: native algorithm cannot service a checkpoint request")
}

// Quiesced implements Algorithm.
func (*Native) Quiesced() bool { return false }

// VerifySafeState implements Algorithm.
func (*Native) VerifySafeState() error { return nil }

type nativeRank struct{}

func (nativeRank) Name() string              { return "native" }
func (nativeRank) RegisterComm(ci *CommInfo) {}
func (nativeRank) Snapshot() ([]byte, error) { return nil, nil }
func (nativeRank) Restore(data []byte) error { return nil }
func (nativeRank) Collective(ci *CommInfo, desc func() *Descriptor, exec func()) Outcome {
	exec()
	return Proceed
}
func (nativeRank) Initiate(ci *CommInfo, exec func() *mpi.Request) *mpi.Request { return exec() }
func (nativeRank) HoldAtWait(desc *Descriptor, done func() bool) Outcome        { return Proceed }
func (nativeRank) AtBoundary(desc *Descriptor) Outcome                          { return Proceed }
