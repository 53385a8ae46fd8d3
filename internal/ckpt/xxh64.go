package ckpt

// The 64-bit identity hash of every stream, object, record and chunk the
// store names: XXH64 with seed 0 (github.com/Cyan4973/xxHash, doc/
// xxhash_spec.md). Four independent lanes each fold eight bytes per round,
// so the pass is bound by load bandwidth rather than by one multiply per
// byte. It detects damage and keys content reuse (always together with a
// length and, per chunk, a CRC-32C); it is not a defence against forgery.

import (
	"encoding/binary"
	"math/bits"
)

const (
	xxPrime1 = 0x9e3779b185ebca87
	xxPrime2 = 0xc2b2ae3d27d4eb4f
	xxPrime3 = 0x165667b19e3779f9
	xxPrime4 = 0x85ebca77c2b2ae63
	xxPrime5 = 0x27d4eb2f165667c5
)

// xxh64 is a streaming XXH64 state. The zero value is not ready: take one
// from newXXH64 or call reset.
type xxh64 struct {
	v1, v2, v3, v4 uint64
	total          uint64   // bytes written
	mem            [32]byte // the stripe left incomplete by the last write
	n              int      // bytes of mem in use
}

func newXXH64() (d xxh64) {
	d.reset()
	return d
}

func (d *xxh64) reset() {
	// Seed 0: the lanes start at prime1+prime2, prime2, 0 and -prime1.
	d.v1, d.v2, d.v3, d.v4 = 0x60ea27eeadc0b5d6, xxPrime2, 0, 0x61c8864e7a143579
	d.total, d.n = 0, 0
}

func xxRound(acc, lane uint64) uint64 {
	return bits.RotateLeft64(acc+lane*xxPrime2, 31) * xxPrime1
}

func xxMerge(h, v uint64) uint64 {
	return (h^xxRound(0, v))*xxPrime1 + xxPrime4
}

// write folds p into the state; any partition of a stream into writes gives
// the same sum.
func (d *xxh64) write(p []byte) {
	d.total += uint64(len(p))
	if d.n > 0 {
		c := copy(d.mem[d.n:], p)
		d.n += c
		p = p[c:]
		if d.n < len(d.mem) {
			return
		}
		d.stripes(d.mem[:])
		d.n = 0
	}
	d.n = copy(d.mem[:], d.stripes(p))
}

// stripes consumes p's whole 32-byte stripes and returns the rest.
func (d *xxh64) stripes(p []byte) []byte {
	v1, v2, v3, v4 := d.v1, d.v2, d.v3, d.v4
	for len(p) >= 32 {
		v1 = xxRound(v1, binary.LittleEndian.Uint64(p[0:8]))
		v2 = xxRound(v2, binary.LittleEndian.Uint64(p[8:16]))
		v3 = xxRound(v3, binary.LittleEndian.Uint64(p[16:24]))
		v4 = xxRound(v4, binary.LittleEndian.Uint64(p[24:32]))
		p = p[32:]
	}
	d.v1, d.v2, d.v3, d.v4 = v1, v2, v3, v4
	return p
}

// sum64 returns the hash of everything written so far; the state is left
// as it was, so writing may continue.
func (d *xxh64) sum64() uint64 {
	h := uint64(xxPrime5)
	if d.total >= 32 {
		h = bits.RotateLeft64(d.v1, 1) + bits.RotateLeft64(d.v2, 7) +
			bits.RotateLeft64(d.v3, 12) + bits.RotateLeft64(d.v4, 18)
		h = xxMerge(h, d.v1)
		h = xxMerge(h, d.v2)
		h = xxMerge(h, d.v3)
		h = xxMerge(h, d.v4)
	}
	h += d.total
	p := d.mem[:d.n]
	for ; len(p) >= 8; p = p[8:] {
		h = bits.RotateLeft64(h^xxRound(0, binary.LittleEndian.Uint64(p)), 27)*xxPrime1 + xxPrime4
	}
	if len(p) >= 4 {
		h = bits.RotateLeft64(h^uint64(binary.LittleEndian.Uint32(p))*xxPrime1, 23)*xxPrime2 + xxPrime3
		p = p[4:]
	}
	for _, b := range p {
		h = bits.RotateLeft64(h^uint64(b)*xxPrime5, 11) * xxPrime1
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

// Sum64 is the identity of one in-memory blob: a manifest record's checksum,
// or a rank's logical stream's RawSum.
func Sum64(b []byte) uint64 {
	d := newXXH64()
	d.write(b)
	return d.sum64()
}
