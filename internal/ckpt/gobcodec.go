package ckpt

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"slices"
	"sync"
)

// gobCodec writes and reads one type's gob records (shard header, manifest)
// paying gob's type exchange once per process. A gob stream opens with a
// definition message per type in the value's graph (negative ids), then the
// value message; for a type with no interface-typed field every record a
// process writes opens with the same definitions, as gob numbers types
// process-wide. A pooled encoder that has sent them writes the value message
// alone, behind the definitions it sent. A record whose definitions a pooled
// decoder has received is read by it from the value message; one with other
// definitions (another binary numbers types its own way) by a fresh decoder,
// pooled under them once it has decoded. A coder that erred is dropped.
type gobCodec struct {
	encs sync.Pool // *gobEnc
	mu   sync.Mutex
	decs [4]struct { // definitions seen, each with a pool of *gobDec primed with them
		defs []byte
		pool *sync.Pool
	}
	next int // the slot the next definitions take
}

type (
	gobEnc struct {
		buf  bytes.Buffer
		enc  *gob.Encoder
		defs []byte // what enc sent ahead of its first value
	}
	gobDec struct {
		in  bytes.Reader
		dec *gob.Decoder
	}
)

// encode appends v's record to dst.
func (c *gobCodec) encode(dst []byte, v any) ([]byte, error) {
	e, _ := c.encs.Get().(*gobEnc)
	fresh := e == nil
	if fresh {
		e = &gobEnc{}
		e.enc = gob.NewEncoder(&e.buf)
	}
	if err := e.enc.Encode(v); err != nil {
		return dst, err
	}
	dst = append(append(slices.Grow(dst, len(e.defs)+e.buf.Len()), e.defs...), e.buf.Bytes()...)
	if fresh { // v again is its value message alone; the definitions precede it
		n := e.buf.Len()
		if e.enc.Encode(v) != nil || !bytes.HasSuffix(e.buf.Bytes()[:n], e.buf.Bytes()[n:]) {
			return dst, nil
		}
		e.defs = bytes.Clone(e.buf.Bytes()[:n-(e.buf.Len()-n)])
	}
	e.buf.Reset()
	c.encs.Put(e)
	return dst, nil
}

// decode reads one record from br into v, each gob message within cap. A
// record not whole in what br holds goes, as before the codec, to a fresh
// decoder through the capped reader.
func (c *gobCodec) decode(br *bufio.Reader, cap int64, v any) error {
	br.Peek(1) // an empty buffer fills
	b, _ := br.Peek(br.Buffered())
	if n, err := c.decodeBytes(b[:min(max(cap, 0), int64(len(b)))], v); n > 0 {
		br.Discard(n)
		return err
	}
	return gob.NewDecoder(newCappedMessageReader(br, cap)).Decode(v)
}

// decodeBytes reads the record b opens with into v and says how many bytes
// of b it took, 0 when b holds no whole record (gob fails on those bytes).
func (c *gobCodec) decodeBytes(b []byte, v any) (int, error) {
	split, end := scanRecord(b)
	if end == 0 {
		return 0, errors.New("gob: no whole record")
	}
	p := c.decoders(b[:split])
	d, _ := p.Get().(*gobDec)
	if d == nil { // a fresh decoder reads the definitions too
		d = &gobDec{}
		d.dec, split = gob.NewDecoder(&d.in), 0
	}
	d.in.Reset(b[split:end])
	err := d.dec.Decode(v)
	if err == nil {
		d.in.Reset(nil)
		p.Put(d)
	}
	return end, err
}

// decoders returns the pool of decoders primed with defs, making one in
// place of the oldest if there is none.
func (c *gobCodec) decoders(defs []byte) *sync.Pool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.decs {
		if p.pool != nil && bytes.Equal(p.defs, defs) {
			return p.pool
		}
	}
	p := &c.decs[c.next]
	p.defs, p.pool, c.next = bytes.Clone(defs), new(sync.Pool), (c.next+1)%len(c.decs)
	return p.pool
}

// scanRecord finds the gob record b opens with: type definition messages,
// then the first message that is not one. The definitions are b[:split] and
// the record b[:end]; end is 0 when b holds no whole record.
func scanRecord(b []byte) (split, end int) {
	for at := 0; ; at = end {
		n, w, ok := gobUint(b[at:])
		if !ok || n > uint64(len(b)-at-w) {
			return 0, 0
		}
		end = at + w + int(n)
		if id, _, ok := gobUint(b[at+w : end]); !ok || id&1 == 0 { // not a negative id
			return at, end
		}
	}
}

// gobUint decodes the unsigned count gob's wire format opens b with: one
// byte holding the value (<= 0x7f), or the negated count of big-endian
// bytes that follow. A signed count is odd when negative.
func gobUint(b []byte) (u uint64, width int, ok bool) {
	if len(b) == 0 {
		return 0, 0, false
	}
	if b[0] <= 0x7f {
		return uint64(b[0]), 1, true
	}
	if w := -int(int8(b[0])); w <= 8 && len(b) > w {
		for _, c := range b[1 : 1+w] {
			u = u<<8 | uint64(c)
		}
		return u, 1 + w, true
	}
	return 0, 0, false
}
