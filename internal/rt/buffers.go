package rt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Buffers is a rank's named communication buffers, which App.Buffer
// resolves, and the checked snapshot layout built on them; the zero value is
// an empty registry. The layout is fixed-width little-endian: the header
// words (Iter, Phase, then the app's scalars), each float64 array at the
// rank's own length, then the buffer section — each buffer in ID order as
// its ID length word, the ID, its data length word and the data. ID order,
// never a map's, keeps the bytes canonical: state digests are compared
// bitwise, and encode→decode→re-encode must be the identity.
type Buffers struct {
	m map[string][]byte
}

// Add registers a named buffer of n zero bytes, or returns the one
// registered under id if it already has n bytes.
func (b *Buffers) Add(id string, n int) []byte {
	if cur, ok := b.m[id]; ok && len(cur) == n {
		return cur
	}
	if b.m == nil {
		b.m = make(map[string][]byte)
	}
	b.m[id] = make([]byte, n)
	return b.m[id]
}

// Get returns the buffer registered under id, or nil.
func (b *Buffers) Get(id string) []byte { return b.m[id] }

// Len is the number of registered buffers.
func (b *Buffers) Len() int { return len(b.m) }

// SectionLen is the byte length of the buffer section.
func (b *Buffers) SectionLen() int {
	n := 0
	for id, data := range b.m {
		n += 16 + len(id) + len(data)
	}
	return n
}

// lengthPrefixed splits a length word and the bytes it counts off the front
// of b; ok is false when either runs past the end of b.
func lengthPrefixed(b []byte) (field, rest []byte, ok bool) {
	if len(b) < 8 || binary.LittleEndian.Uint64(b) > uint64(len(b)-8) {
		return nil, nil, false
	}
	n := 8 + binary.LittleEndian.Uint64(b)
	return b[8:n], b[n:], true
}

// CheckSection reports, under the app's name, whether sec is a buffer
// section holding exactly the registered buffers, in strictly increasing ID
// order, each of its registered size, and nothing after them. It writes
// nothing.
func (b *Buffers) CheckSection(app string, sec []byte) error {
	// As many buffers as the registry holds, with strictly increasing known
	// IDs, are exactly its set. The lookup by string(id) does not allocate.
	prev := []byte(nil)
	for i := 0; i < len(b.m); i++ {
		id, next, okID := lengthPrefixed(sec)
		d, next, okData := lengthPrefixed(next)
		if !okID || !okData {
			return fmt.Errorf("%s: snapshot buffer %d runs past the end", app, i)
		}
		dst, known := b.m[string(id)]
		switch {
		case i > 0 && bytes.Compare(prev, id) >= 0:
			return fmt.Errorf("%s: snapshot buffer %.32q after %.32q (IDs must strictly increase)", app, id, prev)
		case !known:
			return fmt.Errorf("%s: snapshot has unknown buffer %.32q", app, id)
		case len(d) != len(dst):
			return fmt.Errorf("%s: buffer %q size mismatch: %d vs %d", app, id, len(dst), len(d))
		}
		prev, sec = id, next
	}
	if len(sec) != 0 {
		return fmt.Errorf("%s: snapshot has %d bytes past its last buffer", app, len(sec))
	}
	return nil
}

// RestoreSection copies a buffer section CheckSection accepted into the
// registered buffers.
func (b *Buffers) RestoreSection(sec []byte) {
	for len(sec) > 0 {
		id, next, _ := lengthPrefixed(sec)
		d, next, _ := lengthPrefixed(next)
		copy(b.m[string(id)], d)
		sec = next
	}
}

// SnapshotTo writes the header words hdr — Iter and Phase first — the
// arrays and the buffer section to w, laid out in one allocation of the
// exact size and handed over in one Write.
func (b *Buffers) SnapshotTo(w io.Writer, hdr []uint64, arrays ...[]float64) error {
	dst := make([]byte, 0, fixedLen(hdr, arrays)+b.SectionLen())
	for _, x := range hdr {
		dst = binary.LittleEndian.AppendUint64(dst, x)
	}
	for _, a := range arrays {
		for _, x := range a {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	}
	ids := make([]string, 0, 8) // on the stack: a registry holds a handful of buffers
	for id := range b.m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(id)))
		dst = append(dst, id...)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(b.m[id])))
		dst = append(dst, b.m[id]...)
	}
	_, err := w.Write(dst)
	return err
}

// fixedLen is the byte length of the header words and arrays.
func fixedLen(hdr []uint64, arrays [][]float64) int {
	n := 8 * len(hdr)
	for _, a := range arrays {
		n += 8 * len(a)
	}
	return n
}

// Restore fills hdr, the arrays and the buffers from data if data is the
// layout SnapshotTo writes for this rank with len(hdr) header words: the
// length the arrays and buffers fix, a phase among Step's cases
// [0, phases), an iteration in [0, iters], and exactly the registered
// buffers. Otherwise it returns an error under the app's name and writes
// nothing. A restore that succeeds allocates nothing, and none keeps a
// reference to data.
func (b *Buffers) Restore(app string, data []byte, hdr []uint64, phases, iters int, arrays ...[]float64) error {
	fixed := fixedLen(hdr, arrays)
	if want := fixed + b.SectionLen(); len(data) != want {
		return fmt.Errorf("%s: snapshot is %d bytes, this rank's state %d", app, len(data), want)
	}
	switch iter, phase := int64(binary.LittleEndian.Uint64(data)), int64(binary.LittleEndian.Uint64(data[8:])); {
	case phase < 0 || phase >= int64(phases):
		return fmt.Errorf("%s: snapshot phase %d outside [0, %d]", app, phase, phases-1)
	case iter < 0 || iter > int64(iters):
		return fmt.Errorf("%s: snapshot iteration %d outside [0, %d]", app, iter, iters)
	}
	if err := b.CheckSection(app, data[fixed:]); err != nil {
		return err
	}
	for i := range hdr {
		hdr[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	data = data[8*len(hdr):]
	for _, a := range arrays {
		for i := range a {
			a[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		data = data[8*len(a):]
	}
	b.RestoreSection(data)
	return nil
}
