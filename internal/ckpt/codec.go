package ckpt

// Codec-pluggable encode path. Every stored shard object (full chunked
// shards, page deltas, CDC chunk objects) passes through exactly one codec
// between the raw stream and the store writer. The Codec interface makes the
// stage explicit so a plan can select the `none` passthrough and run the
// chunk pipeline at raw memory bandwidth, and so the benchmarks can separate
// hashing/chunking cost from compression cost.
//
// The codec that encoded an object is recorded per shard in the manifest
// (ShardInfo.CodecID, gob-additive: old manifests decode as CodecFlate),
// because decode must follow the bytes that exist, not the codec that
// happens to be configured at restart time.

import (
	"fmt"
	"io"
	"sync"

	"mana/internal/deflate"
	"mana/internal/inflate"
)

// Codec identifiers persisted in ShardInfo.CodecID. The zero value is the
// flate codec so every manifest written before codecs existed keeps meaning
// what it meant.
const (
	// CodecFlate: DEFLATE — written by internal/deflate (compress/flate's
	// BestSpeed bytes), read back by internal/inflate.
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

// flateCodec is DEFLATE through internal/deflate's one level, BestSpeed: the
// pipeline is checksum- and copy-bound, and checkpoint images (gobs of
// float-heavy application state) compress well even at the fastest level.
type flateCodec struct{}

// FlateCodec returns the flate codec. The argument is unused: it was a level
// hint no caller set, kept only because bench/ calls FlateCodec(0) (ROADMAP).
func FlateCodec(int) Codec { return flateCodec{} }

func (flateCodec) Name() string { return "flate" }
func (flateCodec) ID() int      { return CodecFlate }

// flateWriters recycles compressors across shards — one carries half a
// megabyte of window and table state whose allocation would otherwise
// dominate the encode of small shards (hundreds of ranks x one fresh writer
// each).
var flateWriters = sync.Pool{New: func() any { return deflate.NewWriter(nil) }}

func (flateCodec) NewWriter(dst io.Writer) (io.WriteCloser, error) {
	fw := flateWriters.Get().(*deflate.Writer)
	fw.Reset(dst)
	return &flateCodecWriter{fw}, nil
}

// NewReader decodes with the in-tree inflate (stored streams are plain
// RFC 1951). Close returns the decoder's
// state to a pool, so every reader opened here is closed exactly once by its
// owner and not read afterwards; a stray second Close is a no-op.
func (flateCodec) NewReader(src io.Reader) io.ReadCloser {
	r := new(inflate.Reader)
	r.Reset(src)
	return r
}

// flateCodecWriter recycles the compressor into the pool on a clean Close (a
// writer that failed mid-stream is abandoned: its internal state is
// undefined).
type flateCodecWriter struct{ fw *deflate.Writer }

func (w *flateCodecWriter) Write(p []byte) (int, error) { return w.fw.Write(p) }

func (w *flateCodecWriter) Close() error {
	if err := w.fw.Close(); err != nil {
		return err
	}
	flateWriters.Put(w.fw)
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

// CodecByName resolves a codec knob: "" and "flate" select flate, "none" the
// passthrough. Unknown names are an error — a typo'd plan must fail the
// commit, not silently compress.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "", "flate":
		return FlateCodec(0), nil
	case "none":
		return NoneCodec(), nil
	}
	return nil, fmt.Errorf("ckpt: unknown codec %q (want flate or none)", name)
}

// codecByID resolves a manifest's persisted codec discriminator for decode.
func codecByID(id int) (Codec, error) {
	switch id {
	case CodecFlate:
		return FlateCodec(0), nil
	case CodecNone:
		return NoneCodec(), nil
	}
	return nil, fmt.Errorf("ckpt: unknown codec id %d", id)
}
