// Copyright 2009, 2016 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style license: redistribution
// and use in source and binary forms, with or without modification, are
// permitted provided that redistributions retain this copyright notice, this
// list of conditions and the disclaimer; neither the name of Google Inc. nor
// the names of its contributors may be used to endorse or promote products
// derived from this software without specific prior written permission. THIS
// SOFTWARE IS PROVIDED "AS IS", WITHOUT WARRANTIES OF ANY KIND.
//
// The matcher, the block-choice rules, the length-limited code construction,
// the code-length run-length coding and the symbol tables below are ported
// from Go's compress/flate (deflate.go, deflatefast.go, huffman_code.go,
// huffman_bit_writer.go, token.go), itself based on Snappy's encoder.

// Package deflate is a DEFLATE (RFC 1951) encoder with one setting: it
// writes, for every input and every segmentation of it into Write calls,
// exactly the bytes compress/flate writes at BestSpeed. Checkpoint commit is
// bound by this pass, and the stored bytes are pinned (golden digests, byte
// metrics), so the port is decision for decision — 65 535-byte blocks, the
// Snappy-style matcher with its skip heuristic and cross-block matches, a
// Huffman-only block when matching removed under a sixteenth of the tokens, a
// stored block when coding saves under a seventeenth, the same length-limited
// codes — and only how the decisions are carried out differs:
//
//   - the matcher records sequences (literal run, match length, distance),
//     not a token per literal, and counts symbols as it goes, literals a run
//     at a time from the window;
//   - a hash-table entry is one packed word, one load and one store a probe;
//   - matches extend eight bytes a step;
//   - a block's size is known before its first code is written, so codes go
//     through a bit accumulator held in locals, three literals or one match
//     per eight-byte store, into a buffer reserved for that size, and the
//     destination sees one Write per block;
//   - codes come from a radix sort of packed freq|symbol keys, a linear-time
//     Huffman merge whose tie rule gives compress/flate's code lengths (its
//     package-merge runs only where a code would pass the length limit), and
//     one canonical pass in symbol order.
//
// All state is one fixed-size struct (about 440 KB, nothing sized from the
// input), meant to be pooled and Reset. There is no Flush, no level and no
// preset dictionary.
package deflate

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/bits"
)

// ErrClosed is returned by Write on a Writer after Close.
var ErrClosed = errors.New("deflate: write to a closed writer")

const (
	blockSize      = 65535 // input bytes per block: a stored block's limit
	maxMatchOffset = 1 << 15
	histSize       = maxMatchOffset // window kept below the current block
	maxMatchLength = 258
	baseMatchLen   = 3

	tableBits  = 14
	tableSize  = 1 << tableBits
	tableMask  = tableSize - 1
	tableShift = 32 - tableBits

	// The matcher stops looking for matches inputMargin bytes before the end
	// of a block, so its loads never need a bounds argument.
	inputMargin = 16 - 1

	// bufferReset is where cur is brought back down: table offsets are
	// int32, and a block may add 2 * blockSize to cur before the next check.
	bufferReset = math.MaxInt32 - blockSize*2

	numLit         = 286 // literal/length alphabet
	numOff         = 30  // distance alphabet
	numCodegen     = 19  // code-length alphabet
	endBlockMarker = 256
	lengthCodes0   = 257 // first length code
	badCode        = 255 // end marker in the codegen array
	maxBitsLimit   = 16

	// A match costs at most 18 extra bits beyond its two codes and there are
	// at most blockSize/4 of them; a block whose codes alone exceed the
	// stored size is stored instead. So a coded block fits in a stored
	// block's bytes plus three per possible match, with room for the
	// accumulator's eight-byte stores and the stream's trailer.
	outSize = blockSize + blockSize/4*3 + 64
)

// The number of extra bits and the base of each length code, by code - 257;
// lengths here are match lengths minus baseMatchLen.
var lengthExtraBits = [29]uint8{
	0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
}

var lengthBase = [29]uint8{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56,
	64, 80, 96, 112, 128, 160, 192, 224, 255,
}

// lengthCode maps a match length minus baseMatchLen to its code minus 257.
var lengthCode = func() (t [256]uint8) {
	for c := range lengthBase {
		for l := int(lengthBase[c]); l < 256 && (c == 28 || l < int(lengthBase[c+1])); l++ {
			t[l] = uint8(c)
		}
	}
	return t
}()

// The order in which code-length code lengths are written.
var codegenOrder = [numCodegen]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// offsetCode returns the code of a distance minus one: codes 0-3 are the
// distances themselves, after that each power of two is halved between two
// codes, and a code c >= 2 is followed by c/2 - 1 extra bits, the distance's
// low ones.
func offsetCode(d uint32) uint8 {
	if d < 4 {
		return uint8(d)
	}
	h := bits.Len32(d) - 1
	return uint8(2*h) + uint8(d>>(h-1))&1
}

// hcode is a Huffman code: the code's bits, reversed for the LSB-first
// stream, in the low half and its length in the high half.
type hcode uint32

func (c hcode) len() int { return int(c >> 16) }

// seq is one step of a block's parse: lit literal bytes, then a match of
// mlen + baseMatchLen bytes at distance dist + 1, whose code is ocode.
type seq struct {
	lit   uint16
	dist  uint16
	mlen  uint8
	ocode uint8
}

// A Writer compresses what is written to it into the DEFLATE stream
// compress/flate would write at BestSpeed. Create one with NewWriter; it is
// large and meant to be reused through Reset.
type Writer struct {
	dst    io.Writer
	err    error // sticky: the first destination error
	closed bool

	// win holds the last maxMatchOffset bytes of the previous block (when
	// there was one) below the current one, so a match reaching back across
	// the boundary is one contiguous compare. n bytes of the current block,
	// win[histSize:], are filled.
	win [histSize + blockSize + 2]byte // and two bytes writeTokens may look at
	n   int

	// table maps a hash of four bytes to the last position they were seen
	// at, value in the low word and cur-relative offset in the high one.
	// cur is the offset of the current block's first byte; it only grows,
	// so entries of earlier blocks and streams age out by distance.
	table [tableSize]uint64
	cur   int32

	seqs [blockSize/4 + 1]seq

	// Output: bytes out[:nout], then the low nbits (< 8 between calls) of
	// bits. A finished block stays in out until the next one starts or the
	// stream ends, so a one-block stream is one Write.
	bits  uint64
	nbits uint
	nout  int
	out   [outSize]byte

	litFreq     [numLit]int32
	offFreq     [numOff]int32
	codegenFreq [numCodegen]int32
	litCodes    [numLit]hcode
	offCodes    [numOff]hcode
	cgCodes     [numCodegen]hcode
	codegen     [numLit + numOff + 1]uint8
	keys        [numLit]uint32      // generate's sort buffers: the keys, in symbol order
	sorted      [numLit]uint32      // and after the first radix pass
	freqs       [numLit + 1]int32   // the sorted keys' frequencies and a sentinel; huffmanCounts' tree
	bitCount    [maxBitsLimit]int32 // huffmanCounts' result
}

// NewWriter returns a Writer compressing into dst.
func NewWriter(dst io.Writer) *Writer {
	// An empty table must read as "too far back": cur starts a block plus,
	// after Reset, a window above the zero offsets.
	w := &Writer{cur: blockSize}
	w.Reset(dst)
	return w
}

// Reset discards the writer's state, error included, and makes it write a
// new stream to dst.
func (w *Writer) Reset(dst io.Writer) {
	w.dst, w.err, w.closed = dst, nil, false
	w.n, w.bits, w.nbits, w.nout = 0, 0, 0, 0
	// Every table entry is below cur; a window further and none is in reach.
	w.cur += maxMatchOffset
	if w.cur >= bufferReset {
		w.shiftOffsets()
	}
}

// Write compresses p. Blocks are cut every blockSize bytes of input whatever
// the boundaries of the Write calls, and a full block is encoded when the
// byte after it arrives, so Close knows which block is last.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, ErrClosed
	}
	total := len(p)
	for len(p) > 0 && w.err == nil {
		if w.n == blockSize {
			w.encodeBlock()
			copy(w.win[:histSize], w.win[blockSize:]) // its last histSize bytes become the history
			w.n = 0
		}
		c := copy(w.win[histSize+w.n:histSize+blockSize], p)
		w.n += c
		p = p[c:]
	}
	if w.err != nil {
		return 0, w.err
	}
	return total, nil
}

// Close encodes what is buffered and ends the stream with an empty final
// stored block. It does not close the destination. A second Close is a
// no-op; after a destination error Close returns that error.
func (w *Writer) Close() error {
	if w.closed || w.err != nil {
		return w.err
	}
	w.closed = true
	if w.n > 0 {
		w.encodeBlock()
	}
	w.storedHeader(0, true)
	w.flush()
	return w.err
}

// flush hands the finished bytes to the destination.
func (w *Writer) flush() {
	if w.err == nil && w.nout > 0 {
		_, w.err = w.dst.Write(w.out[:w.nout])
	}
	w.nout = 0
}

// encodeBlock writes the n buffered bytes as one non-final block.
func (w *Writer) encodeBlock() {
	w.flush()
	n := w.n
	if n <= 16 { // only at the end of a stream, like the n < 128 below
		w.storedBlock(n)
		return
	}
	src := w.win[histSize : histSize+n]
	clear(w.litFreq[:])
	clear(w.offFreq[:])
	nseq := 0
	if n < 128 {
		// Too short to be worth matching: Huffman-coded literals.
		histogram(src, &w.litFreq)
	} else {
		if w.cur >= bufferReset {
			w.shiftOffsets()
		}
		var matched int
		nseq, matched = w.match(n)
		w.cur += int32(n)
		// Tokens are the unmatched bytes plus one per match. If matching
		// removed less than a sixteenth of them the parse is dropped and the
		// block is Huffman-coded literals: the bytes the matches covered, few
		// by that test, join the histogram and the match counts go.
		if n-matched+nseq > n-n>>4 {
			pos := 0
			for _, q := range w.seqs[:nseq] {
				pos += int(q.lit)
				end := pos + int(q.mlen) + baseMatchLen
				histogram(src[pos:end], &w.litFreq)
				pos = end
			}
			clear(w.litFreq[lengthCodes0:])
			clear(w.offFreq[:])
			nseq = 0
		}
	}
	w.writeBlock(n, nseq)
}

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }
func load64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

func hash(u uint32) uint32 { return (u * 0x1e35a7bd) >> tableShift }

// match parses the current block win[histSize:histSize+n] into w.seqs and
// adds the parse's symbols — literals, length codes, distance codes — to
// litFreq and offFreq, which the caller cleared: a second walk over a parse
// of short runs and short matches costs as much as the coding. It returns
// the number of sequences and the bytes their matches cover; the literals
// after the last match are implied. Positions are indexes into win, so a
// candidate in the previous block is simply a smaller index.
func (w *Writer) match(n int) (nseq, matched int) {
	const base = histSize
	src := w.win[:base+n]
	table := &w.table
	// A position p is stored as p + off, which is its offset from the start
	// of the current block plus cur, as compress/flate stores it.
	off := int(w.cur) - base
	entry := func(v uint32, p int) uint64 { return uint64(v) | uint64(uint32(p+off))<<32 }

	// sLimit is where to stop looking for matches; see inputMargin.
	sLimit := base + n - inputMargin
	nextEmit := base // where the pending literal run starts
	s := base
	cv := load32(src, s)
	nextHash := hash(cv)

	for {
		// Heuristic match skipping, from Snappy: if 32 bytes are scanned with
		// no match found, start looking only at every other byte; after 32
		// more, every third, and so on. A match returns the step to one. skip
		// counts the bytes since the last match, times 32 plus 32.
		skip := 32
		nextS := s
		var cand int
		for {
			s = nextS
			step := skip >> 5
			nextS = s + step
			skip += step
			if nextS > sLimit {
				histogram(src[nextEmit:], &w.litFreq)
				return nseq, matched
			}
			h := nextHash & tableMask
			e := table[h]
			now := load32(src, nextS)
			table[h] = entry(cv, s)
			nextHash = hash(now)
			if uint32(e) == cv {
				cand = int(int32(e>>32)) - off
				if s-cand <= maxMatchOffset {
					break
				}
			}
			cv = now
		}

		// src[cand:cand+4] == src[s:s+4], and src[nextEmit:s] is unmatched.
		lit := s - nextEmit
		histogram(src[nextEmit:s], &w.litFreq)
		for {
			// Extend the four-byte match as far as it goes.
			s += 4
			end := min(s+maxMatchLength-4, base+n)
			l := matchLen(src, s, cand+4, end)
			q := seq{lit: uint16(lit), dist: uint16(s - cand - 5), mlen: uint8(l + 4 - baseMatchLen)}
			q.ocode = offsetCode(uint32(q.dist))
			w.litFreq[lengthCodes0+int(lengthCode[q.mlen])]++
			w.offFreq[q.ocode]++
			w.seqs[nseq] = q
			nseq++
			matched += l + 4
			lit = 0
			s += l
			nextEmit = s
			if s >= sLimit {
				histogram(src[s:], &w.litFreq)
				return nseq, matched
			}

			// Before moving on, enter s-1 and s into the table, and see
			// whether another match starts at s right away.
			x := load64(src, s-1)
			table[hash(uint32(x))&tableMask] = entry(uint32(x), s-1)
			x >>= 8
			h := hash(uint32(x)) & tableMask
			e := table[h]
			table[h] = entry(uint32(x), s)
			cand = int(int32(e>>32)) - off
			if uint32(e) != uint32(x) || s-cand > maxMatchOffset {
				cv = uint32(x >> 8)
				nextHash = hash(cv)
				s++
				break
			}
		}
	}
}

// matchLen returns how many bytes of src[s:end] equal those at src[t:],
// t < s.
func matchLen(src []byte, s, t, end int) int {
	n := 0
	for ; s+n+8 <= end; n += 8 {
		if x := load64(src, s+n) ^ load64(src, t+n); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for s+n < end && src[s+n] == src[t+n] {
		n++
	}
	return n
}

// shiftOffsets brings cur back down to just above one window, moving every
// table entry still in reach with it and parking the rest at offset zero,
// which is out of reach of any position. Runs once per ~2 GB compressed.
func (w *Writer) shiftOffsets() {
	for i := range w.table {
		e := w.table[i]
		v := int32(e>>32) - w.cur + maxMatchOffset + 1
		if v < 0 {
			v = 0
		}
		w.table[i] = e&math.MaxUint32 | uint64(v)<<32
	}
	w.cur = maxMatchOffset + 1
}

// put appends the low nb <= 16 bits of v to the stream.
func (w *Writer) put(v uint32, nb uint) {
	w.bits |= uint64(v) << (w.nbits & 63)
	w.nbits += nb
	binary.LittleEndian.PutUint64(w.out[w.nout:], w.bits)
	w.nout += int(w.nbits >> 3)
	w.bits >>= w.nbits &^ 7 & 63
	w.nbits &= 7
}

func (w *Writer) putCode(c hcode) { w.put(uint32(c&0xffff), uint(c>>16)) }

// storedHeader writes a stored block's header: the type bits, padding to a
// byte boundary, the length and its complement.
func (w *Writer) storedHeader(n int, final bool) {
	var flag uint32
	if final {
		flag = 1
	}
	w.put(flag, 3)
	if w.nbits > 0 {
		w.put(0, 8-w.nbits)
	}
	w.put(uint32(n), 16)
	w.put(uint32(^uint16(n)), 16)
}

// storedBlock writes the current block's n bytes as they are.
func (w *Writer) storedBlock(n int) {
	w.storedHeader(n, false)
	w.nout += copy(w.out[w.nout:], w.win[histSize:histSize+n])
}

// writeBlock writes the current block's n bytes as a dynamic Huffman block
// following the parse seqs[:nseq] — with no sequences, as Huffman-coded
// literals — or stored, if coding would save less than a seventeenth.
// litFreq and offFreq hold the counts of the parse's symbols.
func (w *Writer) writeBlock(n, nseq int) {
	seqs := w.seqs[:nseq]
	w.litFreq[endBlockMarker] = 1

	numLiterals := numLit
	for w.litFreq[numLiterals-1] == 0 {
		numLiterals--
	}
	numOffsets := numOff
	for numOffsets > 0 && w.offFreq[numOffsets-1] == 0 {
		numOffsets--
	}
	if numOffsets == 0 {
		// Not one match: count one distance all the same, so the distance
		// code can be described.
		w.offFreq[0] = 1
		numOffsets = 1
	}
	w.generate(w.litCodes[:], w.litFreq[:], 15)
	w.generate(w.offCodes[:], w.offFreq[:], 15)
	w.generateCodegen(numLiterals, numOffsets)
	w.generate(w.cgCodes[:], w.codegenFreq[:], 7)

	// The block's size in bits, without the matches' extra bits: that is the
	// figure compress/flate holds against the stored size.
	numCodegens := numCodegen
	for numCodegens > 4 && w.codegenFreq[codegenOrder[numCodegens-1]] == 0 {
		numCodegens--
	}
	size := 3 + 5 + 5 + 4 + 3*numCodegens +
		bitLength(w.codegenFreq[:], w.cgCodes[:]) +
		int(w.codegenFreq[16])*2 + int(w.codegenFreq[17])*3 + int(w.codegenFreq[18])*7 +
		bitLength(w.litFreq[:], w.litCodes[:]) +
		bitLength(w.offFreq[:], w.offCodes[:])
	if (n+5)*8 < size+size>>4 {
		w.storedBlock(n)
		return
	}
	w.dynamicHeader(numLiterals, numOffsets, numCodegens)
	w.writeTokens(n, seqs)
}

// histogram adds the bytes of b to h.
func histogram(b []byte, h *[numLit]int32) {
	for _, v := range b {
		h[v]++
	}
}

func bitLength(freq []int32, codes []hcode) int {
	total := 0
	for i, f := range freq {
		total += int(f) * codes[i].len()
	}
	return total
}

// dynamicHeader writes a non-final dynamic block's header: the counts, the
// code-length code's lengths, then the run-length coded lengths of the two
// codes as generateCodegen left them in w.codegen.
func (w *Writer) dynamicHeader(numLiterals, numOffsets, numCodegens int) {
	w.put(4, 3)
	w.put(uint32(numLiterals-257), 5)
	w.put(uint32(numOffsets-1), 5)
	w.put(uint32(numCodegens-4), 4)
	for _, sym := range codegenOrder[:numCodegens] {
		w.put(uint32(w.cgCodes[sym].len()), 3)
	}
	for i := 0; w.codegen[i] != badCode; i++ {
		sym := w.codegen[i]
		w.putCode(w.cgCodes[sym])
		switch sym {
		case 16:
			i++
			w.put(uint32(w.codegen[i]), 2)
		case 17:
			i++
			w.put(uint32(w.codegen[i]), 3)
		case 18:
			i++
			w.put(uint32(w.codegen[i]), 7)
		}
	}
}

// addCode appends a code to the bit accumulator, and storeBits moves the
// accumulator's whole bytes out: eight are stored, the stream advances by
// the nb/8 that were complete, and under eight bits stay behind.
func addCode(acc uint64, nb uint, c hcode) (uint64, uint) {
	return acc | uint64(c&0xffff)<<(nb&63), nb + uint(c>>16)
}

func storeBits(out *[outSize]byte, o int, acc uint64, nb uint) (int, uint64, uint) {
	binary.LittleEndian.PutUint64(out[o:], acc)
	return o + int(nb>>3), acc >> (nb &^ 7 & 63), nb & 7
}

// writeTokens writes the literals, matches and end marker of the block of n
// bytes; outSize says why they fit. The accumulator holds under 8 bits
// between steps and a step adds at most 45 — three literal codes, or two and
// the end marker — or 48 — a length code and 5 extra bits, a distance code
// and 13 — so an eight-byte store takes it all.
func (w *Writer) writeTokens(n int, seqs []seq) {
	lc, oc, out := &w.litCodes, &w.offCodes, &w.out
	acc, nb, o := w.bits, w.nbits, w.nout
	src := w.win[histSize:]
	pos := 0
	for i := 0; ; i++ {
		k := n - pos
		if i < len(seqs) {
			k = int(seqs[i].lit)
		}
		// Literals go three to a store. The last one or two are coded
		// without a branch on how many there are — short runs between short
		// matches are where a parse-heavy block spends its time: two bytes
		// past the run are looked up too (the match's, or win's padding) and
		// masked to nothing.
		lits := src[pos : pos+k+2]
		for ; k >= 3; k -= 3 {
			acc, nb = addCode(acc, nb, lc[lits[0]])
			acc, nb = addCode(acc, nb, lc[lits[1]])
			acc, nb = addCode(acc, nb, lc[lits[2]])
			o, acc, nb = storeBits(out, o, acc, nb)
			lits = lits[3:]
		}
		acc, nb = addCode(acc, nb, lc[lits[0]]&-hcode((k+1)>>1))
		acc, nb = addCode(acc, nb, lc[lits[1]]&-hcode(k>>1))
		if i == len(seqs) {
			acc, nb = addCode(acc, nb, lc[endBlockMarker])
			o, acc, nb = storeBits(out, o, acc, nb)
			break
		}
		o, acc, nb = storeBits(out, o, acc, nb)

		q := seqs[i]
		pos += int(q.lit) + int(q.mlen) + baseMatchLen
		lcode := lengthCode[q.mlen] & 31
		acc, nb = addCode(acc, nb, lc[lengthCodes0+int(lcode)])
		// The extra bits' value is zero where a code has none.
		acc, nb = addCode(acc, nb, hcode(q.mlen-lengthBase[lcode])|hcode(lengthExtraBits[lcode])<<16)
		acc, nb = addCode(acc, nb, oc[q.ocode])
		onb := max(hcode(q.ocode)>>1, 1) - 1
		acc, nb = addCode(acc, nb, hcode(q.dist)&(1<<onb-1)|onb<<16)
		o, acc, nb = storeBits(out, o, acc, nb)
	}
	w.bits, w.nbits, w.nout = acc, nb, o
}

// generateCodegen run-length codes the concatenated code lengths of the
// literal/length and distance codes (RFC 1951 3.2.7) into w.codegen, ended
// by badCode, and counts the code-length symbols used into w.codegenFreq.
// Symbols 0-15 are lengths; 16 repeats the last length 3-6 times, 17 and 18
// write 3-10 and 11-138 zeros, each followed by its repeat count less the
// minimum.
func (w *Writer) generateCodegen(numLiterals, numOffsets int) {
	clear(w.codegenFreq[:])
	// codegen holds the lengths first and then, written over them from the
	// front, the result, which is never longer than the input used so far.
	codegen := w.codegen[:]
	for i, c := range w.litCodes[:numLiterals] {
		codegen[i] = uint8(c.len())
	}
	for i, c := range w.offCodes[:numOffsets] {
		codegen[numLiterals+i] = uint8(c.len())
	}
	codegen[numLiterals+numOffsets] = badCode

	size := codegen[0]
	count := 1
	outIndex := 0
	for inIndex := 1; size != badCode; inIndex++ {
		// count copies of size have been seen and not yet written.
		nextSize := codegen[inIndex]
		if nextSize == size {
			count++
			continue
		}
		if size != 0 {
			codegen[outIndex] = size
			outIndex++
			w.codegenFreq[size]++
			count--
			for count >= 3 {
				n := min(6, count)
				codegen[outIndex] = 16
				codegen[outIndex+1] = uint8(n - 3)
				outIndex += 2
				w.codegenFreq[16]++
				count -= n
			}
		} else {
			for count >= 11 {
				n := min(138, count)
				codegen[outIndex] = 18
				codegen[outIndex+1] = uint8(n - 11)
				outIndex += 2
				w.codegenFreq[18]++
				count -= n
			}
			if count >= 3 {
				codegen[outIndex] = 17
				codegen[outIndex+1] = uint8(count - 3)
				outIndex += 2
				w.codegenFreq[17]++
				count = 0
			}
		}
		for ; count > 0; count-- {
			codegen[outIndex] = size
			outIndex++
			w.codegenFreq[size]++
		}
		size = nextSize
		count = 1
	}
	codegen[outIndex] = badCode
}

// generate sets codes to the length-limited Huffman code compress/flate
// builds for freq: symbols sorted by (frequency, symbol), code lengths handed
// out from the most frequent down, canonical code values. How many symbols
// get each length is what compress/flate's bitCounts says; huffmanCounts
// finds that in linear time wherever no code is longer than maxBits, and
// bitCounts itself runs only where one would be.
func (w *Writer) generate(codes []hcode, freq []int32, maxBits int32) {
	keys := w.keys[:0]
	for i, f := range freq {
		codes[i] = 0
		if f != 0 {
			keys = append(keys, uint32(f)<<16|uint32(i)) // f <= blockSize
		}
	}
	if len(keys) <= 2 {
		// Awkward for the general case: one bit each, in symbol order.
		for i, k := range keys {
			codes[k&0xffff] = hcode(i) | 1<<16
		}
		return
	}
	keys = w.sortKeys(keys)
	bitCount, ok := w.huffmanCounts(keys, maxBits)
	if !ok {
		bitCount = w.bitCounts(keys, maxBits)
	}

	// The last bitCount[1] symbols of the sorted list get one bit, the
	// bitCount[2] before them two, and so on; within a length, values go up
	// in symbol order, which one pass over the symbols does for all lengths.
	var next [maxBitsLimit]uint16
	code := uint16(0)
	for n := 1; n < len(bitCount); n++ {
		code <<= 1
		next[n] = code
		code += uint16(bitCount[n])
		for c := bitCount[n]; c > 0; c-- {
			codes[keys[len(keys)-1]&0xffff] = hcode(n) << 16
			keys = keys[:len(keys)-1]
		}
	}
	for i, c := range codes {
		if n := c >> 16; n != 0 {
			codes[i] = c | hcode(bits.Reverse16(next[n]<<(16-n)))
			next[n]++
		}
	}
}

// sortKeys sorts keys, made in symbol order, by frequency. The sort is
// stable, so equal frequencies stay in symbol order and the result is the
// keys sorted whole. It is a radix sort over the frequency's two bytes, low
// then high, and a key set whose frequencies all fit in the low byte skips
// the second pass.
func (w *Writer) sortKeys(keys []uint32) []uint32 {
	sorted := w.sorted[:len(keys)]
	var all uint32
	for _, k := range keys {
		all |= k
	}
	radixPass(sorted, keys, 16)
	if all>>24 == 0 {
		return sorted
	}
	radixPass(keys, sorted, 24)
	return keys
}

// radixPass moves src into dst ordered by the byte at shift, keeping the
// order of keys whose byte is the same.
func radixPass(dst, src []uint32, shift uint) {
	var start [256]int32
	for _, k := range src {
		start[byte(k>>shift)]++
	}
	sum := int32(0)
	for i, c := range start {
		start[i] = sum
		sum += c
	}
	for _, k := range src {
		b := byte(k >> shift)
		dst[start[b]] = k
		start[b]++
	}
}

// huffmanCounts is bitCounts where the limit does not bind. It builds a
// Huffman tree over keys, sorted by increasing frequency (at least three),
// by the two-queue method — leaves in sorted order, merged nodes in the
// order they are made — and counts the leaves at each depth into
// w.bitCount. Where the two queues' heads tie, the merged node is taken:
// several trees are optimal, and that rule gives the one whose counts are
// bitCounts' (taking the leaf gives other counts in a quarter of
// TestHuffmanCountsExhaustive's cases). It reports false if a code would be longer than maxBits, and
// then the counts are bitCounts' to find.
//
// The tree is built in place in w.freqs, as Moffat and Katajainen do
// ("In-place calculation of minimum-redundancy codes", 1995): the first
// pass leaves at freqs[i] the weight of the i-th merged node until a parent
// takes it, then the index of that parent; the second turns parent indexes
// into depths, root first; the third counts, depth by depth, the nodes that
// are not merged ones.
func (w *Writer) huffmanCounts(keys []uint32, maxBits int32) ([]int32, bool) {
	n := len(keys)
	a := w.freqs[:n]
	for i, k := range keys {
		a[i] = int32(k >> 16)
	}
	// a[next] is written over a leaf already taken: after next merges,
	// 2·next nodes are taken and at most next of them are merged ones.
	leaf, root := 0, 0
	for next := 0; next < n-1; next++ {
		if leaf >= n || root < next && a[root] <= a[leaf] {
			a[next] = a[root]
			a[root] = int32(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || root < next && a[root] <= a[leaf] {
			a[next] += a[root]
			a[root] = int32(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}

	a[n-2] = 0 // the root's depth
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}

	counts := &w.bitCount
	clear(counts[:])
	deepest := 0
	root = n - 2
	for depth, nodes := 0, 1; nodes > 0; depth++ {
		merged := 0
		for root >= 0 && a[root] == int32(depth) {
			merged++
			root--
		}
		if nodes > merged {
			if depth > int(maxBits) {
				return nil, false
			}
			counts[depth] = int32(nodes - merged)
			deepest = depth
		}
		nodes = 2 * merged
	}
	return counts[:deepest+1], true
}

// levelInfo is bitCounts' state for one depth of the tree under
// construction.
type levelInfo struct {
	level        int32
	lastFreq     int32 // frequency of the last node at this level
	nextCharFreq int32 // frequency of the next leaf to add to this level
	nextPairFreq int32 // frequency of the next pair from the level below; valid only if that level's needed is 0
	needed       int32 // nodes still to generate at this level before moving up
}

// bitCounts returns, for keys sorted by increasing frequency (at least
// three), how many symbols get each code length when no code may exceed
// maxBits < maxBitsLimit: result[i] symbols get i bits. This is
// compress/flate's construction step for step — where frequencies tie and
// where the limit binds, the order of its choices decides the lengths.
func (w *Writer) bitCounts(keys []uint32, maxBits int32) []int32 {
	n := int32(len(keys))
	freqs := w.freqs[:n+1]
	for i, k := range keys {
		freqs[i] = int32(k >> 16)
	}
	freqs[n] = math.MaxInt32

	// The tree can't be deeper than n - 1.
	maxBits = min(maxBits, n-1)

	// Level 0 is bogus: it exists so that level 1's nextPairFreq is a
	// legitimate value that is never chosen.
	var levels [maxBitsLimit]levelInfo
	// leafCounts[i][j] is the number of leaves to the left of the level-j
	// ancestor of the rightmost node at level i.
	var leafCounts [maxBitsLimit][maxBitsLimit]int32

	for level := int32(1); level <= maxBits; level++ {
		// Every level starts with the first two leaves already placed.
		levels[level] = levelInfo{
			level:        level,
			lastFreq:     freqs[1],
			nextCharFreq: freqs[2],
			nextPairFreq: freqs[0] + freqs[1],
		}
		leafCounts[level][level] = 2
		if level == 1 {
			levels[level].nextPairFreq = math.MaxInt32
		}
	}

	// The top level needs 2n - 2 items and has two.
	levels[maxBits].needed = 2*n - 4

	level := maxBits
	for {
		l := &levels[level]
		if l.nextPairFreq == math.MaxInt32 && l.nextCharFreq == math.MaxInt32 {
			// Out of both leaves and pairs: this level is done for good, and
			// an impossibly large nextPairFreq keeps the one above from ever
			// coming back down.
			l.needed = 0
			levels[level+1].nextPairFreq = math.MaxInt32
			level++
			continue
		}

		prevFreq := l.lastFreq
		if l.nextCharFreq < l.nextPairFreq {
			// The next item on this level is a leaf.
			c := leafCounts[level][level] + 1
			l.lastFreq = l.nextCharFreq
			leafCounts[level][level] = c
			l.nextCharFreq = freqs[c]
		} else {
			// The next item is a pair from the level below, which must then
			// produce two more before its nextPairFreq means anything.
			l.lastFreq = l.nextPairFreq
			// The lower level's counts below this level's own: a whole row is
			// a fixed-size copy, and entries past a row's level are never read.
			c := leafCounts[level][level]
			leafCounts[level] = leafCounts[level-1]
			leafCounts[level][level] = c
			levels[l.level-1].needed = 2
		}

		if l.needed--; l.needed == 0 {
			// This level is complete; the two nodes just made pair up for
			// the level above.
			if l.level == maxBits {
				break
			}
			levels[l.level+1].nextPairFreq = prevFreq + l.lastFreq
			level++
		} else {
			// If a pair was taken from below, go down and replenish it.
			for levels[level-1].needed > 0 {
				level--
			}
		}
	}

	bitCount := w.freqs[:maxBits+1] // freqs is spent; reuse it for the answer
	bitCount[0] = 0
	counts := &leafCounts[maxBits]
	nbits := 1
	for level := maxBits; level > 0; level-- {
		// counts[level] symbols need at least nbits bits.
		bitCount[nbits] = counts[level] - counts[level-1]
		nbits++
	}
	return bitCount
}
