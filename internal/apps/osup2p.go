package apps

import (
	"fmt"

	"mana/internal/rt"
)

// OSUP2P is the point-to-point companion of the OSU collective loops:
// osu_latency (ping-pong between rank 0 and a peer) and osu_bw (a window of
// back-to-back messages, acknowledged once per window). Ranks other than
// the measured pair idle at the final barrier, as in the real benchmark.
type OSUP2P struct {
	cfg OSUP2PConfig

	Iter  int
	Phase int
	bufs  rt.Buffers // "buf", cfg.Size bytes
}

// OSUP2PConfig parametrizes the benchmark.
type OSUP2PConfig struct {
	Bandwidth  bool // false: ping-pong latency; true: windowed bandwidth
	Size       int  // message bytes
	Window     int  // messages per window (bandwidth mode)
	Iterations int
	Peer       int // world rank of the partner (default 1; use a remote
	// rank to measure the inter-node path)
}

// NewOSUP2P creates the benchmark app for one rank.
func NewOSUP2P(cfg OSUP2PConfig) *OSUP2P {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 100
	}
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.Peer <= 0 {
		cfg.Peer = 1
	}
	if cfg.Size <= 0 {
		cfg.Size = 8
	}
	o := &OSUP2P{cfg: cfg}
	o.bufs.Add("buf", cfg.Size)
	return o
}

// Name implements rt.App.
func (o *OSUP2P) Name() string {
	kind := "latency"
	if o.cfg.Bandwidth {
		kind = "bw"
	}
	return fmt.Sprintf("osu-%s-%dB", kind, o.cfg.Size)
}

// Setup implements rt.App.
func (o *OSUP2P) Setup(env *rt.Env) error { return nil }

// Buffer implements rt.App.
func (o *OSUP2P) Buffer(id string) []byte { return o.bufs.Get(id) }

// Step implements rt.App.
func (o *OSUP2P) Step(env *rt.Env) (bool, error) {
	me := env.Rank()
	peer := o.cfg.Peer
	measured := me == 0 || me == peer
	if !measured {
		// Idle ranks synchronize once at the end.
		env.Barrier(rt.WorldVID)
		return false, nil
	}
	other := peer
	if me == peer {
		other = 0
	}
	payload := make([]byte, o.cfg.Size)

	if o.cfg.Bandwidth {
		// Bandwidth: rank 0 fires Window eager messages; the peer receives
		// them all and acks with one byte.
		switch o.Phase {
		case 0:
			if me == 0 {
				// Post the ack receive before firing the window so the
				// reply can never race an unposted receive.
				env.Irecv(rt.WorldVID, other, 59, "buf", 0, 1)
				for k := 0; k < o.cfg.Window; k++ {
					env.Send(rt.WorldVID, other, 60+k%8, payload)
				}
			} else {
				for k := 0; k < o.cfg.Window; k++ {
					env.Irecv(rt.WorldVID, other, 60+k%8, "buf", 0, o.cfg.Size)
				}
			}
			o.Phase = 1
			env.WaitAll()
		case 1:
			if me != 0 {
				env.Send(rt.WorldVID, other, 59, payload[:1])
			}
			o.Iter++
			if o.Iter >= o.cfg.Iterations {
				o.Phase = 2
			} else {
				o.Phase = 0
			}
		case 2:
			env.Barrier(rt.WorldVID)
			return false, nil
		}
		return true, nil
	}

	// Latency: classic ping-pong. The receive is posted before the ping is
	// sent (and before the blocking wait on both ranks), mirroring the
	// bandwidth phase: the pong can then never arrive at an unposted
	// receive, whatever the partner's reply ordering.
	switch o.Phase {
	case 0:
		env.Irecv(rt.WorldVID, other, 61, "buf", 0, o.cfg.Size)
		if me == 0 {
			env.Send(rt.WorldVID, other, 61, payload)
		}
		o.Phase = 1
		env.WaitAll()
	case 1:
		if me != 0 {
			env.Send(rt.WorldVID, other, 61, payload)
		}
		o.Iter++
		if o.Iter >= o.cfg.Iterations {
			o.Phase = 2
		} else {
			o.Phase = 0
		}
	case 2:
		env.Barrier(rt.WorldVID)
		return false, nil
	}
	return true, nil
}

// Snapshot implements rt.App: the header words Iter and Phase, then the
// buffer (rt.Buffers).
func (o *OSUP2P) Snapshot() ([]byte, error) {
	return o.bufs.Snapshot([]uint64{uint64(o.Iter), uint64(o.Phase)}), nil
}

// Restore implements rt.App.
func (o *OSUP2P) Restore(data []byte) error {
	var h [2]uint64
	if err := o.bufs.Restore("osu-p2p", data, h[:], 3, o.cfg.Iterations); err != nil {
		return err
	}
	o.Iter, o.Phase = int(h[0]), int(h[1])
	return nil
}
