package ckpt

// Codec-pluggable encode path. Every stored shard object (full chunked
// shards, page deltas, CDC chunk objects) passes through exactly one codec
// between the raw stream and the store writer. Historically that codec was
// hard-wired to compress/flate at a tier-hinted level; the Codec interface
// makes the stage explicit so a bandwidth-rich tier can select the `none`
// passthrough and run the chunk pipeline at raw memory bandwidth, and so
// the benchmarks can separate hashing/chunking cost from compression cost.
//
// The codec that encoded an object is recorded per shard in the manifest
// (ShardInfo.CodecID, gob-additive: old manifests decode as CodecFlate),
// because decode must follow the bytes that exist, not the tier hint that
// happens to be configured at restart time.

import (
	"fmt"
	"io"

	"mana/internal/inflate"
)

// Codec identifiers persisted in ShardInfo.CodecID. The zero value is the
// flate codec so every manifest written before codecs existed keeps meaning
// what it meant.
const (
	// CodecFlate: DEFLATE — written by internal/deflate at BestSpeed (every
	// level the tree selects; its bytes are compress/flate's), by
	// compress/flate at any other hinted level; internal/inflate on the way
	// back.
	CodecFlate = 0
	// CodecNone: the identity passthrough — stored bytes ARE the raw
	// stream. The integrity story is unchanged (the stored-object XXH64 and
	// the raw identity just coincide); only the CPU spent on flate goes
	// away.
	CodecNone = 1
)

// Codec is one compression scheme for stored shard objects. NewWriter's
// WriteCloser compresses into dst; Close flushes the codec's framing and
// recycles any pooled state WITHOUT closing dst (the shard pipeline owns
// dst's lifecycle). NewReader's ReadCloser decompresses from src; Close
// never closes src.
type Codec interface {
	// Name is the stable knob spelling ("flate", "none").
	Name() string
	// ID is the manifest discriminator (CodecFlate, CodecNone).
	ID() int
	NewWriter(dst io.Writer) (io.WriteCloser, error)
	NewReader(src io.Reader) io.ReadCloser
}

// flateCodec wraps the level-keyed pooled flate writers.
type flateCodec struct {
	level int // normalized (see normFlateLevel)
}

// FlateCodec returns the flate codec at a codec-hint level (0 selects the
// default shardCompression; out-of-range values clamp, see normFlateLevel).
func FlateCodec(level int) Codec { return flateCodec{level: normFlateLevel(level)} }

func (c flateCodec) Name() string { return "flate" }
func (c flateCodec) ID() int      { return CodecFlate }

func (c flateCodec) NewWriter(dst io.Writer) (io.WriteCloser, error) {
	fw, err := flateWriterFor(c.level, dst)
	if err != nil {
		return nil, err
	}
	return &flateCodecWriter{fw: fw, level: c.level}, nil
}

// NewReader decodes with the in-tree inflate (stored streams are plain
// RFC 1951). Close returns the decoder's
// state to a pool, so every reader opened here is closed exactly once by its
// owner and not read afterwards; a stray second Close is a no-op.
func (c flateCodec) NewReader(src io.Reader) io.ReadCloser {
	r := new(inflate.Reader)
	r.Reset(src)
	return r
}

// flateCodecWriter recycles the compressor into its level's pool on a
// clean Close (a writer that failed mid-stream is abandoned: its internal
// state is undefined).
type flateCodecWriter struct {
	fw    flateStream
	level int
}

func (w *flateCodecWriter) Write(p []byte) (int, error) { return w.fw.Write(p) }

func (w *flateCodecWriter) Close() error {
	if err := w.fw.Close(); err != nil {
		return err
	}
	putFlateWriter(w.level, w.fw)
	return nil
}

// noneCodec is the identity passthrough.
type noneCodec struct{}

// NoneCodec returns the passthrough codec: stored bytes are the raw stream
// verbatim.
func NoneCodec() Codec { return noneCodec{} }

func (noneCodec) Name() string { return "none" }
func (noneCodec) ID() int      { return CodecNone }

func (noneCodec) NewWriter(dst io.Writer) (io.WriteCloser, error) {
	return nopWriteCloser{dst}, nil
}

func (noneCodec) NewReader(src io.Reader) io.ReadCloser {
	return io.NopCloser(src)
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// CodecByName resolves a codec knob: "" and "flate" select flate at the
// given hint level, "none" the passthrough. Unknown names are an error —
// a typo'd tier hint must fail the commit, not silently compress.
func CodecByName(name string, flateLevel int) (Codec, error) {
	switch name {
	case "", "flate":
		return FlateCodec(flateLevel), nil
	case "none":
		return NoneCodec(), nil
	}
	return nil, fmt.Errorf("ckpt: unknown codec %q (want flate or none)", name)
}

// codecByID resolves a manifest's persisted codec discriminator for decode.
// The flate level is irrelevant on the read side (flate streams are
// self-describing); FlateCodec(0) reads any level.
func codecByID(id int) (Codec, error) {
	switch id {
	case CodecFlate:
		return FlateCodec(0), nil
	case CodecNone:
		return NoneCodec(), nil
	}
	return nil, fmt.Errorf("ckpt: unknown codec id %d", id)
}
