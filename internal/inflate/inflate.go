// Package inflate is a streaming RFC 1951 (DEFLATE) decoder: stored, fixed
// and dynamic blocks, nothing else (no zlib or gzip framing, no preset
// dictionary, no encoder). It exists because restart is bound by inflate:
// compress/flate pulls its input one interface-dispatched ReadByte at a time
// into a 32-bit bit buffer and allocates its decoder per stream, where this
// one decodes the way libdeflate does. It keeps all of its state in one
// pooled, fixed-size struct and refills a 64-bit bit buffer eight bytes at a
// time, without a branch, from its own input buffer. Most codes resolve with
// one lookup in a 10-bit primary table (8-bit for distances). A table entry
// carries the code's extra bits: bits 0-7 count the code and its extra bits
// together, bits 8-11 the code alone, bits 12-15 are flags and bits 16-31
// the literal, base length or base distance. So one shift consumes a length
// or a distance, and the extra value is read from the bits as they were
// before it. One refill decodes up to three literals with no bit count
// checked between them; the next code is looked up before a match is
// copied; and a table is built by writing each short code once and
// doubling.
//
// The decoder is a bounded io.Reader: a 64 KiB input buffer, a 64 KiB output
// window and fixed-size decode tables (about 150 KiB per open stream, nothing
// sized from the stream). It reads ahead of the final block by at most its
// input buffer and never interprets what follows it; the caller owns those
// bytes' meaning. A truncated stream answers io.ErrUnexpectedEOF, a damaged
// one an error wrapping ErrCorrupt — never a panic, and never output decoded
// from bits the source did not supply: the fast loop runs only while fastIn
// (16) real input bytes remain, of which one iteration counts at most 9, and
// the careful loop that finishes a stream checks every code and its extra
// bits against the count of real bits it holds.
package inflate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
)

// ErrCorrupt is wrapped by every error that reports a malformed stream.
var ErrCorrupt = errors.New("inflate: corrupt deflate stream")

// ErrClosed is returned by Read on a Reader after Close.
var ErrClosed = errors.New("inflate: read from a closed reader")

var (
	errBlockType   = fmt.Errorf("%w: reserved block type", ErrCorrupt)
	errStoredLen   = fmt.Errorf("%w: stored block length does not match its complement", ErrCorrupt)
	errCodeCounts  = fmt.Errorf("%w: too many literal/length or distance codes", ErrCorrupt)
	errCodeLengths = fmt.Errorf("%w: bad code-length sequence", ErrCorrupt)
	errCodeSet     = fmt.Errorf("%w: over-subscribed or incomplete code set", ErrCorrupt)
	errSymbol      = fmt.Errorf("%w: invalid code", ErrCorrupt)
	errDistance    = fmt.Errorf("%w: distance reaches before the start of the output", ErrCorrupt)
)

const (
	inSize   = 64 << 10 // input buffer
	winSize  = 64 << 10 // output window: 32 KiB of history plus room to decode into
	winMask  = winSize - 1
	histSize = 32 << 10 // the farthest a match reaches back

	maxMatch = 258
	// outMargin is the window room one loop iteration may use: three
	// literals, or two and a maximal match with the word copy's overshoot.
	outMargin = maxMatch + 64
	// fastIn is the input the fast loop needs in hand. An iteration refills
	// at most twice: after one or two literals, with at least 36 bits left,
	// so the refill counts at most 3 new bytes; and after a match, with at
	// least 8 left, so at most 6. It counts at most 9 bytes past where it
	// started, and its last eight-byte load ends at most 11 past it.
	fastIn = 16

	litBits  = 10 // primary table index widths
	distBits = 8
	preBits  = 7 // the code-length code's longest code: no subtables

	maxLit  = 288 // fixed blocks define 286 and 287; using them is an error
	maxDist = 32  // likewise 30 and 31

	// Table sizes. A subtable indexed by b bits holds at least b+1 codes of
	// a complete set (one per depth and two at the bottom), so subtables
	// cost at most 2^b/(b+1) entries a symbol: 32/6 for b = 15-litBits = 5,
	// 128/8 for b = 15-distBits = 7.
	litTable  = 1<<litBits + maxLit*32/6
	distTable = 1<<distBits + maxDist*128/8
)

// A table entry describes one decoded symbol, or links to a subtable:
//
//	bits 0-7   bits the entry consumes: its code and, for a length or a
//	           distance, the extra bits behind it (a link: the primary width)
//	bits 8-11  the code's own length, where the extra bits start (a link: the
//	           subtable width)
//	bits 12-15 flags
//	bits 16-31 literal byte, base length, base distance, code-length symbol
//	           (a link: the subtable's start)
//
// So one shift by the low byte consumes a code with its extra bits, and the
// extra value is the consumed bits above the code: see extra.
const (
	flagLit = 1 << 12
	flagSub = 1 << 13
	flagEOB = 1 << 14
	flagBad = 1 << 15
)

// Per-symbol entries before the code length is added: flags, payload and
// the extra-bit count in the low byte.
var (
	litSyms  [maxLit]uint32
	distSyms [maxDist]uint32
	preSyms  [19]uint32

	fixedLit  [litTable]uint32
	fixedDist [distTable]uint32
)

var preOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

func init() {
	for i := 0; i < 256; i++ {
		litSyms[i] = flagLit | uint32(i)<<16
	}
	litSyms[256] = flagEOB
	for i, base := 257, 3; i < 285; i++ { // RFC 1951 3.2.5: lengths 3..257
		extra := 0
		if i >= 265 {
			extra = (i - 261) / 4
		}
		litSyms[i] = uint32(extra) | uint32(base)<<16
		base += 1 << extra
	}
	litSyms[285] = maxMatch << 16
	litSyms[286], litSyms[287] = flagBad, flagBad
	for i, base := 0, 1; i < 30; i++ { // distances 1..32768
		extra := 0
		if i >= 4 {
			extra = (i - 2) / 2
		}
		distSyms[i] = uint32(extra) | uint32(base)<<16
		base += 1 << extra
	}
	distSyms[30], distSyms[31] = flagBad, flagBad
	for i := range preSyms {
		preSyms[i] = uint32(i) << 16
	}
	preSyms[16] |= 2 // RFC 1951 3.2.7: the repeat counts' extra bits
	preSyms[17] |= 3
	preSyms[18] |= 7

	var lens [maxLit]uint8
	for i := range lens { // RFC 1951 3.2.6
		switch {
		case i < 144:
			lens[i] = 8
		case i < 256:
			lens[i] = 9
		case i < 280:
			lens[i] = 7
		default:
			lens[i] = 8
		}
	}
	buildTable(fixedLit[:], litBits, lens[:], litSyms[:])
	for i := range lens[:maxDist] {
		lens[i] = 5
	}
	buildTable(fixedDist[:], distBits, lens[:maxDist], distSyms[:])
}

// extra is the value of the extra bits of entry e, read from bb as it was
// before e was consumed.
func extra(bb uint64, e uint32) uint32 {
	return uint32(bb&(1<<(e&63)-1)) >> (e >> 8 & 15)
}

// buildTable fills t — 1<<root primary entries, then subtables — from a set
// of code lengths; syms gives each symbol's entry before its code length is
// added. It reports false for an over-subscribed set and for an incomplete
// one other than the two RFC 1951 allows in practice: no codes at all (a
// block of literals only has no distance codes) and a single code of one
// bit. Unassigned bit patterns of those decode to flagBad.
func buildTable(t []uint32, root uint, lens []uint8, syms []uint32) bool {
	// Two counters, so that a run of equal lengths alternates between them
	// rather than waiting on its own last increment.
	var c0, c1 [16]uint16
	i := 0
	for ; i+1 < len(lens); i += 2 {
		c0[lens[i]]++
		c1[lens[i+1]]++
	}
	if i < len(lens) {
		c0[lens[i]]++
	}
	var count [16]int
	left := 1 // unassigned code space at the current length
	for l := range count {
		count[l] = int(c0[l]) + int(c1[l])
		if l > 0 {
			if left = left<<1 - count[l]; left < 0 {
				return false
			}
		}
	}
	if left > 0 {
		if used := len(lens) - count[0]; used > 1 || used != count[1] {
			return false
		}
		for i := range t[:1<<root] {
			t[i] = flagBad
		}
		for sym, l := range lens {
			if l != 0 { // the single one-bit code: every even index
				for j := 0; j < 1<<root; j += 2 {
					t[j] = syms[sym] + 0x101
				}
			}
		}
		return true
	}

	// Symbols in canonical order: by length, then by value.
	var offs [16]int
	for l := 1; l < 15; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var sorted [maxLit]uint16
	for sym, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(sym)
			offs[l]++
		}
	}

	// Codes no longer than root: t[:1<<l] is the table of l-bit codes. Each
	// code is written once, at its bit-reversed index (codes are sent LSB
	// first), and the table doubles — its filled part copied onto itself —
	// each time l grows, which repeats every shorter code at each index its
	// low bits match. An index no code of length l covers yet holds stale
	// entries until a longer code, or the link to its subtable, overwrites it:
	// the set is complete, so one does.
	code, k := 0, 0 // next canonical code, next symbol in canonical order
	for l := uint(1); l <= root; l++ {
		if l > 1 {
			copy(t[1<<(l-1):1<<l], t[:1<<(l-1)])
		}
		for n := count[l]; n > 0; n-- {
			t[bits.Reverse16(uint16(code))>>(16-l)] = syms[sorted[k]] + uint32(l)*0x101
			code++
			k++
		}
		code <<= 1
	}

	// Longer codes go to subtables, each linked from the primary entry of
	// its root-bit prefix.
	end := 1 << root // next free subtable slot
	subPrefix, subStart, subBits := -1, 0, uint(0)
	for l := root + 1; l <= 15; l++ {
		for n := count[l]; n > 0; n-- {
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			code++
			if prefix := rev & (1<<root - 1); prefix != subPrefix {
				// A new subtable, wide enough for the longest code under
				// this prefix: widen while the codes counted so far leave
				// space (the set is complete, so this terminates).
				subPrefix, subStart, subBits = prefix, end, l-root
				for used := n; used < 1<<subBits && root+subBits < 15; {
					subBits++
					used = used<<1 + count[root+subBits]
				}
				if end += 1 << subBits; end > len(t) {
					return false // cannot happen for a complete set; see litTable
				}
				t[prefix] = flagSub | uint32(subStart)<<16 | uint32(subBits)<<8 | uint32(root)
			}
			e := syms[sorted[k]] + uint32(l-root)*0x101
			k++
			for j := rev >> root; j < 1<<subBits; j += 1 << (l - root) {
				t[subStart+j] = e
			}
		}
		code <<= 1
	}
	return true
}

// state is everything one open stream needs. It is what the pool holds; a
// Reader is the handle that owns one between Reset and Close.
type state struct {
	src    io.Reader
	srcErr error // the source's terminal answer, io.EOF included
	err    error // sticky verdict: io.EOF after the final block, or the failure

	bb uint64 // bit buffer: the next nb bits of the stream, low bit first
	nb uint

	ipos, iend int // unread input is in[ipos:iend]
	rp, wp     int // win[rp:wp] is decoded and not yet served; win[:wp] is history

	final  bool // the block being decoded is the last
	huff   bool // inside a Huffman block (lt/dt are valid)
	stored int  // bytes left of a stored block

	lt *[litTable]uint32
	dt *[distTable]uint32

	lit  [litTable]uint32
	dist [distTable]uint32
	pre  [1 << preBits]uint32
	lens [maxLit + maxDist]uint8

	in  [inSize + 8]byte // 8 spare bytes: see refill
	win [winSize]byte
}

var pool = sync.Pool{New: func() any { return new(state) }}

func (s *state) reset(src io.Reader) {
	s.src, s.srcErr, s.err = src, nil, nil
	s.bb, s.nb = 0, 0
	s.ipos, s.iend, s.rp, s.wp = 0, 0, 0, 0
	s.final, s.huff, s.stored = false, false, 0
}

// Reader decompresses one DEFLATE stream. The zero value is closed: Reset
// opens it. It is not safe for concurrent use.
type Reader struct {
	s *state // nil once closed
}

// Reset discards any state and starts decompressing src; it opens the zero
// value and reopens a closed Reader. A Reader that is never closed is simply
// garbage.
func (r *Reader) Reset(src io.Reader) {
	if r.s == nil {
		r.s = pool.Get().(*state)
	}
	r.s.reset(src)
}

// Close releases the decoder state. The state belongs to the handle, so a
// second Close is a no-op however the pool has reused it since, and a stale
// handle can never put a state that someone else now reads through back into
// the pool. Close does not close the source.
func (r *Reader) Close() error {
	if s := r.s; s != nil {
		r.s = nil
		s.src = nil
		pool.Put(s)
	}
	return nil
}

// Read implements io.Reader: io.EOF after the final block's last byte,
// io.ErrUnexpectedEOF if the source ends first.
func (r *Reader) Read(p []byte) (int, error) {
	s := r.s
	if s == nil {
		return 0, ErrClosed
	}
	for len(p) > 0 {
		if s.rp < s.wp {
			n := copy(p, s.win[s.rp:s.wp])
			s.rp += n
			return n, nil
		}
		if s.err != nil {
			return 0, s.err
		}
		if s.wp > winSize-outMargin { // everything is served: slide the history down
			copy(s.win[:histSize], s.win[s.wp-histSize:s.wp])
			s.rp, s.wp = histSize, histSize
		}
		for s.err == nil && s.wp <= winSize-outMargin {
			switch {
			case s.stored > 0:
				s.copyStored()
			case s.huff:
				s.huffman()
			default:
				s.blockHeader()
			}
		}
	}
	return 0, nil
}

// fill moves the unread input to the front of the buffer and reads more
// behind it, reporting whether any arrived.
func (s *state) fill() bool {
	if s.srcErr != nil {
		return false
	}
	s.iend = copy(s.in[:], s.in[s.ipos:s.iend])
	s.ipos = 0
	for tries := 0; tries < 100; tries++ {
		n, err := s.src.Read(s.in[s.iend:inSize])
		s.iend += n
		if err != nil {
			s.srcErr = err
		}
		if n > 0 || err != nil {
			return n > 0
		}
	}
	s.srcErr = io.ErrNoProgress
	return false
}

// short is the verdict when the stream needs bits the source does not have.
func (s *state) short() error {
	if s.srcErr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return s.srcErr
}

// need loads input bytes until the bit buffer holds n bits (n <= 56, so nb
// stays below 64), reporting false if the source ends first.
func (s *state) need(n uint) bool {
	for s.nb < n {
		if s.ipos == s.iend && !s.fill() {
			return false
		}
		s.bb |= uint64(s.in[s.ipos]) << s.nb
		s.ipos++
		s.nb += 8
	}
	return true
}

// refill tops the bit buffer up to at least 56 bits with one eight-byte load
// from in[ipos:] and no branch; the bytes loaded past the new nb are real
// input too, loaded again by the next refill. The caller knows eight input
// bytes are in hand, so ipos < inSize: the mask changes nothing, and with the
// array's 8 spare bytes it lets the compiler drop the load's bounds checks.
func refill(in *[inSize + 8]byte, bb uint64, nb uint, ipos int) (uint64, uint, int) {
	bb |= binary.LittleEndian.Uint64(in[ipos&(inSize-1):]) << (nb & 63)
	return bb, nb | 56, ipos + int((63-nb)>>3)
}

// take consumes n bits the buffer is known to hold.
func (s *state) take(n uint) uint32 {
	v := uint32(s.bb) & (1<<n - 1)
	s.bb >>= n
	s.nb -= n
	return v
}

// symbol decodes one code of table t with its extra bits from the real bits
// in hand, which the caller has topped up as far as the source allows: a code
// longer than those is a truncated stream. It returns the entry and its value,
// the payload plus the extra bits.
func (s *state) symbol(t []uint32, root uint) (uint32, uint32, error) {
	bb, n := s.bb, uint(0)
	e := t[bb&(1<<root-1)]
	if e&flagSub != 0 {
		bb >>= root
		n = root
		e = t[e>>16+uint32(bb)&(1<<(e>>8&15)-1)]
	}
	if n += uint(e & 0xff); n > s.nb {
		return 0, 0, s.short()
	}
	if e&flagBad != 0 {
		return 0, 0, errSymbol
	}
	s.take(n)
	return e, e>>16 + extra(bb, e), nil
}

func (s *state) blockHeader() {
	if !s.need(3) {
		s.err = s.short()
		return
	}
	s.final = s.take(1) == 1
	switch s.take(2) {
	case 0:
		s.take(s.nb & 7) // a stored block starts at the next byte boundary
		if !s.need(32) {
			s.err = s.short()
			return
		}
		n, nn := s.take(16), s.take(16)
		if n != ^nn&0xffff {
			s.err = errStoredLen
			return
		}
		if s.stored = int(n); n == 0 {
			s.endBlock()
		}
	case 1:
		s.lt, s.dt, s.huff = &fixedLit, &fixedDist, true
	case 2:
		if s.err = s.dynamicHeader(); s.err == nil {
			s.lt, s.dt, s.huff = &s.lit, &s.dist, true
		}
	default:
		s.err = errBlockType
	}
}

func (s *state) endBlock() {
	s.huff = false
	if s.final {
		s.err = io.EOF
	}
}

// copyStored moves stored-block bytes to the window: first the whole bytes
// the bit buffer holds (they precede the input buffer's), then in bulk.
func (s *state) copyStored() {
	for s.nb >= 8 && s.stored > 0 {
		s.win[s.wp] = byte(s.take(8))
		s.wp++
		s.stored--
	}
	if s.stored > 0 {
		if s.ipos == s.iend && !s.fill() {
			s.err = s.short()
			return
		}
		n := copy(s.win[s.wp:], s.in[s.ipos:min(s.iend, s.ipos+s.stored)])
		s.ipos += n
		s.wp += n
		s.stored -= n
	}
	if s.stored == 0 {
		s.endBlock()
	}
}

// dynamicHeader reads a dynamic block's code lengths (RFC 1951 3.2.7) and
// builds its two tables.
func (s *state) dynamicHeader() error {
	if !s.need(14) {
		return s.short()
	}
	nlit, ndist, npre := int(s.take(5))+257, int(s.take(5))+1, int(s.take(4))+4
	if nlit > 286 || ndist > 30 {
		return errCodeCounts
	}
	var preLens [19]uint8
	for _, sym := range preOrder[:npre] {
		if !s.need(3) {
			return s.short()
		}
		preLens[sym] = uint8(s.take(3))
	}
	if !buildTable(s.pre[:], preBits, preLens[:], preSyms[:]) {
		return errCodeSet
	}
	// The code lengths, each a code of at most 7 bits and at most 7 extra
	// bits: one branch-free refill a code while eight input bytes remain,
	// the careful need at the tail.
	lens := s.lens[:nlit+ndist]
	bb, nb, ipos := s.bb, s.nb, s.ipos
	for i := 0; i < len(lens); {
		if ipos+8 <= s.iend {
			bb, nb, ipos = refill(&s.in, bb, nb, ipos)
		} else {
			s.bb, s.nb, s.ipos = bb&(1<<nb-1), nb, ipos
			s.need(preBits + 7) // what arrived is checked below
			bb, nb, ipos = s.bb, s.nb, s.ipos
		}
		e := s.pre[bb&(1<<preBits-1)]
		if uint(e&0xff) > nb {
			return s.short()
		}
		if e&flagBad != 0 {
			return errSymbol
		}
		saved := bb
		bb >>= e & 63
		nb -= uint(e & 63)
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var prev uint8
		rep := 3 + int(extra(saved, e))
		switch sym {
		case 16:
			if i == 0 {
				return errCodeLengths
			}
			prev = lens[i-1]
		case 18:
			rep += 8
		}
		if rep > len(lens)-i {
			return errCodeLengths
		}
		for ; rep > 0; rep-- {
			lens[i] = prev
			i++
		}
	}
	s.bb, s.nb, s.ipos = bb&(1<<nb-1), nb, ipos
	if !buildTable(s.lit[:], litBits, lens[:nlit], litSyms[:]) ||
		!buildTable(s.dist[:], distBits, lens[nlit:], distSyms[:]) {
		return errCodeSet
	}
	return nil
}

// huffman decodes symbols of the current block until it ends, the window
// fills or the stream fails: in the fast loop while input is plentiful, one
// careful step at a time otherwise.
func (s *state) huffman() {
	for s.huff && s.err == nil && s.wp <= winSize-outMargin {
		if s.iend-s.ipos < fastIn {
			s.fill()
		}
		if s.iend-s.ipos >= fastIn {
			s.huffmanFast()
		} else {
			s.huffmanCareful()
		}
	}
}

// copyMatch appends length bytes starting dist back and returns the new
// write position. Most matches are a few bytes long, where a call to memmove
// costs more than the move: with dist >= 8 the first eight bytes are one
// word, unconditionally, and an overlapping rest goes a word at a time,
// exact because each word is read from bytes already written. A word may
// write up to seven bytes past the match (room outMargin includes; they are
// not yet output and are overwritten by what is). A longer match whose
// source does not overlap it is one memmove, which beats the words from a
// few dozen bytes on. With dist < 8 the copy doubles what it has written
// until the rest fits.
func copyMatch(win *[winSize]byte, wp, dist, length int) int {
	src, end := wp-dist, wp+length
	switch {
	case dist < 8:
		for wp < end {
			wp += copy(win[wp:end], win[src:wp])
		}
	case length <= 8 || dist < length:
		for ; wp < end; src, wp = src+8, wp+8 {
			binary.LittleEndian.PutUint64(win[wp:], binary.LittleEndian.Uint64(win[src:]))
		}
	default:
		binary.LittleEndian.PutUint64(win[wp:], binary.LittleEndian.Uint64(win[src:]))
		copy(win[wp+8:end], win[src+8:])
	}
	return end
}

// huffmanCareful decodes one literal, end-of-block or match from exactly the
// bits the source supplied.
func (s *state) huffmanCareful() {
	s.need(56) // more than any one step consumes (48); symbol checks what arrived
	e, v, err := s.symbol(s.lt[:], litBits)
	switch {
	case err != nil:
		s.err = err
	case e&flagLit != 0:
		s.win[s.wp] = byte(v)
		s.wp++
	case e&flagEOB != 0:
		s.endBlock()
	default:
		_, dist, err := s.symbol(s.dt[:], distBits)
		if err != nil {
			s.err = err
			return
		}
		if int(dist) > s.wp {
			s.err = errDistance
			return
		}
		s.wp = copyMatch(&s.win, s.wp, int(dist), int(v))
	}
}

// huffmanFast is the hot loop, built as libdeflate's is. A refill tops the
// bit buffer up to at least 56 bits with one eight-byte load and no branch
// (the bytes loaded past nb are re-loaded, identically, by the next one).
// The entry of the next code is always looked up before the loop needs it,
// and consumed, code and extra bits together, by one shift. It runs only
// while fastIn input bytes and outMargin window bytes are in hand, so no
// refill or store needs its own check; the bit budgets below are the worst
// case of each path, with nb >= 56 at the top of every iteration.
func (s *state) huffmanFast() {
	bb, nb, ipos, iend, wp := s.bb, s.nb, s.ipos, s.iend, s.wp
	lt, dt, win, in := s.lt, s.dt, &s.win, &s.in
	var err error
	bb, nb, ipos = refill(in, bb, nb, ipos)
	e := lt[bb&(1<<litBits-1)]
	for ipos+fastIn <= iend && wp <= winSize-outMargin {
		if e&flagLit != 0 {
			// Up to three primary literals, 3 x 10 bits, and a 10-bit
			// look-up of the next code: 40 <= 56, so no count is checked.
			bb >>= e & 63
			nb -= uint(e & 63)
			win[wp&winMask] = byte(e >> 16)
			wp++
			e = lt[bb&(1<<litBits-1)]
			if e&flagLit != 0 {
				bb >>= e & 63
				nb -= uint(e & 63)
				win[wp&winMask] = byte(e >> 16)
				wp++
				e = lt[bb&(1<<litBits-1)]
				if e&flagLit != 0 {
					bb >>= e & 63
					nb -= uint(e & 63)
					win[wp&winMask] = byte(e >> 16)
					wp++
					e = lt[bb&(1<<litBits-1)]
					bb, nb, ipos = refill(in, bb, nb, ipos)
					continue
				}
			}
			// A non-literal after one or two literals (20 bits): top up
			// again, so what follows has the budget of a fresh iteration.
			bb, nb, ipos = refill(in, bb, nb, ipos)
		}
		saved := bb
		bb >>= e & 63
		nb -= uint(e & 63)
		if e&flagSub != 0 {
			// The primary width, then a subtable code of up to 5 bits and,
			// for a length, 5 extra bits: 20. A literal takes at most 15,
			// which leaves 41 bits, 10 of them for the next look-up.
			e = lt[e>>16+uint32(bb)&(1<<(e>>8&15)-1)]
			saved = bb
			bb >>= e & 63
			nb -= uint(e & 63)
			if e&flagLit != 0 {
				win[wp&winMask] = byte(e >> 16)
				wp++
				e = lt[bb&(1<<litBits-1)]
				bb, nb, ipos = refill(in, bb, nb, ipos)
				continue
			}
		}
		if e&(flagEOB|flagBad) != 0 {
			if e&flagBad != 0 {
				err = errSymbol
			} else {
				s.endBlock()
			}
			break
		}
		// A length: at most 20 bits, so 36 are left for the distance, a
		// 15-bit code and 13 extra bits (28) ...
		length := int(e>>16 + extra(saved, e))
		d := dt[bb&(1<<distBits-1)]
		if d&flagSub != 0 {
			bb >>= distBits
			nb -= distBits
			d = dt[d>>16+uint32(bb)&(1<<(d>>8&15)-1)]
		}
		if d&flagBad != 0 {
			err = errSymbol
			break
		}
		saved = bb
		bb >>= d & 63
		nb -= uint(d & 63)
		dist := int(d>>16 + extra(saved, d))
		if dist > wp {
			err = errDistance
			break
		}
		// ... which leaves 8: top up, and look the next code up before the
		// copy, so the two overlap.
		bb, nb, ipos = refill(in, bb, nb, ipos)
		e = lt[bb&(1<<litBits-1)]
		wp = copyMatch(win, wp, dist, length)
	}
	// Drop the loaded-but-uncounted bytes above nb: the careful path ORs
	// bytes in one at a time and must find zeros there.
	s.bb, s.nb, s.ipos, s.wp = bb&(1<<nb-1), nb, ipos, wp
	if err != nil {
		s.err = err
	}
}
