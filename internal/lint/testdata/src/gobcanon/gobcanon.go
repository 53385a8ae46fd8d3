// Package gobcanon exercises the gobcanon analyzer: types reached by gob
// encoding must not contain bare map fields.
package gobcanon

import (
	"bytes"
	"encoding/gob"
)

// snapshot is encoded directly; its map field and the map inside the
// element type of its slice field are both flagged.
type snapshot struct {
	Ranks []rankState
	Notes map[string]string // want:gobcanon
}

type rankState struct {
	ID   uint64
	Bufs map[uint64][]byte // want:gobcanon
	Keys []uint64
}

// canonical owns its encoding: gob calls GobEncode instead of reflecting
// over the fields, so the map inside is fine.
type canonical struct {
	M map[string]int
}

func (c *canonical) GobEncode() ([]byte, error) { return nil, nil }
func (c *canonical) GobDecode([]byte) error     { return nil }

type sealed struct {
	C canonical
}

func encode(s *snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gobEncode forwards an interface-typed parameter to Encode, so its call
// sites' concrete argument types become roots.
func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

type viaWrapper struct {
	Table map[int]int // want:gobcanon
}

func useWrapper(v *viaWrapper) ([]byte, error) { return gobEncode(v) }

func useSealed(s *sealed) ([]byte, error) { return gobEncode(s) }

// legacy keeps a decode-only map for old images; the annotation suppresses
// the finding at the field.
type legacy struct {
	New []uint64
	//lint:allow gobcanon decode-only legacy field, nil on every encode path
	Old map[uint64]uint64
}

func encodeLegacy(l *legacy) ([]byte, error) { return gobEncode(l) }

// recordCodec pays gob's type exchange once per process: a pooled encoder
// that has already sent its types writes each record after the first. Its
// encode method forwards an interface-typed parameter to Encode, so the
// concrete types handed to it are roots, reached through nothing else.
type recordCodec struct {
	pool []*pooledEncoder
	defs []byte
}

type pooledEncoder struct {
	buf bytes.Buffer
	enc *gob.Encoder
}

func (c *recordCodec) encode(dst []byte, v any) ([]byte, error) {
	var e *pooledEncoder
	if n := len(c.pool); n > 0 {
		e, c.pool = c.pool[n-1], c.pool[:n-1]
	} else {
		e = &pooledEncoder{}
		e.enc = gob.NewEncoder(&e.buf)
	}
	if err := e.enc.Encode(v); err != nil {
		return dst, err
	}
	dst = append(append(dst, c.defs...), e.buf.Bytes()...)
	e.buf.Reset()
	c.pool = append(c.pool, e)
	return dst, nil
}

var headerCodec recordCodec

type viaCodec struct {
	Lens  []int64
	Index map[string]int // want:gobcanon
}

func useCodec(v *viaCodec) ([]byte, error) { return headerCodec.encode(nil, v) }
