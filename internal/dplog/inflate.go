package dplog

// The one-shot RFC 1951 decoder behind Inflate. A section payload or a
// store block is in hand in full, and so is the length it inflates to, so
// there is no stream to serve: the input is one slice, the output one slice
// of the declared length that doubles as the match window, the bit buffer a
// register refilled eight bytes at a time. It accepts what compress/flate
// accepts (FuzzInflate holds it to that) but for one tightening: nothing
// may follow the final block (docs/FORMAT.md §3).

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
)

var (
	errDeflate  = errors.New("corrupt DEFLATE stream")
	errPastN    = errors.New("stream expands past its declared length")
	errShortOfN = errors.New("raw length falls short of the declared length")
	errTrailing = errors.New("bytes after the final DEFLATE block")
)

// fastBits is the width of a code's primary table: DEFLATE codes run to 15
// bits, but few symbols of a 2–23 KB section get one longer than this.
const fastBits = 10

// huffman is one canonical prefix code.
type huffman struct {
	// fast maps the next fastBits input bits to symbol<<4 | length for
	// every code that short; zero sends the decoder to long.
	fast [1 << fastBits]uint16
	// The canonical form, for the codes fast has no room for: per length,
	// how many codes, the first of them, and where in syms (all symbols in
	// code order) its symbol is.
	count, first, slot [16]uint16
	syms               [288]uint16
}

// init builds the code for the given per-symbol lengths and reports
// whether compress/flate would take it: complete, or empty (fails when
// used), or the lone one-bit code zlib writes for a single distance.
func (h *huffman) init(lens []uint8) bool {
	h.count = [16]uint16{}
	for _, l := range lens {
		h.count[l]++
	}
	left, total, width := 1, len(lens)-int(h.count[0]), 0
	h.count[0] = 0
	for l := 1; l < 16; l++ {
		left = left<<1 - int(h.count[l]) // negative once over-subscribed, and for good
		h.slot[l] = h.slot[l-1] + h.count[l-1]
		h.first[l] = (h.first[l-1] + h.count[l-1]) << 1
		if h.count[l] != 0 && l <= fastBits {
			width = l
		}
	}
	if left != 0 && total != 0 && !(total == 1 && h.count[1] == 1) {
		return false
	}
	// A code whose longest member is shorter than fastBits fills a table of
	// that width, which is then doubled up to size: most of what a small
	// section or block costs is building its tables.
	clear(h.fast[:1<<width])
	slot, next := h.slot, h.first
	for s, l := range lens {
		if l == 0 {
			continue
		}
		h.syms[slot[l]] = uint16(s)
		slot[l]++
		next[l]++
		if l <= fastBits {
			// Codes are packed most significant bit first into a stream
			// read least significant bit first: index by the reversal.
			for r := int(bits.Reverse16(next[l]-1) >> (16 - l)); r < 1<<width; r += 1 << l {
				h.fast[r] = uint16(s)<<4 | uint16(l)
			}
		}
	}
	for n := 1 << width; n < 1<<fastBits; n <<= 1 {
		copy(h.fast[n:2*n], h.fast[:n])
	}
	return true
}

// noSymbol is a fast entry for a symbol no alphabet has.
const noSymbol = 0xfff<<4 | 15

// long decodes the symbol at the bottom of bb, which fast has no entry
// for, the canonical way: the codes of one length are consecutive
// integers, so each further bit costs one comparison. It returns a fast
// entry, noSymbol when no code matches.
func (h *huffman) long(bb uint64) uint16 {
	code := uint(bits.Reverse16(uint16(bb)) >> (16 - fastBits))
	bb >>= fastBits
	for l := fastBits + 1; l < 16; l++ {
		code = code<<1 | uint(bb&1)
		bb >>= 1
		if i := code - uint(h.first[l]); i < uint(h.count[l]) {
			return h.syms[uint(h.slot[l])+i]<<4 | uint16(l)
		}
	}
	return noSymbol
}

// The fixed codes (RFC 1951 §3.2.6). Their literal symbols 286–287 and
// distance symbols 30–31 have codes but, like noSymbol, no meaning.
var fixedLit, fixedDist = func() (lit, dist huffman) {
	lens := bytes.Repeat([]byte{8}, 288)
	copy(lens[144:256], bytes.Repeat([]byte{9}, 112))
	copy(lens[256:280], bytes.Repeat([]byte{7}, 24))
	lit.init(lens)
	dist.init(bytes.Repeat([]byte{5}, 32))
	return lit, dist
}()

// Base value and extra bits of length symbols 257.. and distance symbols
// 0.. (RFC 1951 §3.2.5), indexed modulo 32; a symbol with no meaning gets
// zero, which no length or distance is.
var (
	lenBase   = [32]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [32]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5}
	distBase  = [32]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [32]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// inflater is the decoder's state between blocks — input, bit buffer, the
// tables of the dynamic block at hand — and decodePayload's scratch body.
// Pooled: the tables are a few kilobytes.
type inflater struct {
	in   []byte
	pos  int    // next input byte to load
	bb   uint64 // bit buffer, next bit lowest
	nb   uint   // valid bits in bb
	err  error  // set by take when the input runs out
	body []byte

	lit, dist, clen huffman
	lens            [286 + 30]uint8
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// inflate decodes the stream b into dst resized to n bytes. A stream that
// ends short of n, holds more than n, or is followed by anything fails,
// and no byte past n is ever written. Nor is a length the stream cannot
// reach allocated: a declared n is hostile input too.
func (z *inflater) inflate(dst, b []byte, n int64) ([]byte, error) {
	if n < 0 || n > maxDeflateRatio*int64(len(b)) {
		return nil, fmt.Errorf("inflate: a %d-byte stream cannot hold the declared %d bytes", len(b), n)
	}
	out, op, err := resize(dst, int(n)), 0, error(nil)
	z.in, z.pos, z.bb, z.nb, z.err = b, 0, 0, 0, nil
	for final := false; !final && err == nil; err = cmp.Or(z.err, err) {
		final = z.take(1) != 0
		switch z.take(2) {
		case 0:
			op, err = z.stored(out, op)
		case 1:
			op, err = z.block(&fixedLit, &fixedDist, out, op)
		case 2:
			if err = z.dynamic(); err == nil {
				op, err = z.block(&z.lit, &z.dist, out, op)
			}
		default:
			err = errDeflate
		}
	}
	switch {
	case err != nil:
	case op != len(out):
		err = errShortOfN
	case z.pos-int(z.nb>>3) != len(b):
		err = errTrailing
	default:
		return out, nil
	}
	return nil, fmt.Errorf("inflate: %w", err)
}

// refill tops the bit buffer up to at least 56 bits, or to the end of the
// input. Bits above nb may already hold what the next refill puts there.
func refill(in []byte, pos int, bb uint64, nb uint) (int, uint64, uint) {
	if pos+8 <= len(in) {
		return pos + int(63-nb)>>3, bb | binary.LittleEndian.Uint64(in[pos:])<<nb, nb | 56
	}
	for ; nb < 56 && pos < len(in); pos++ {
		bb |= uint64(in[pos]) << nb
		nb += 8
	}
	return pos, bb, nb
}

// take reads k ≤ 16 header bits, or sets err and returns zero.
func (z *inflater) take(k uint) uint {
	if z.nb < k {
		if z.pos, z.bb, z.nb = refill(z.in, z.pos, z.bb, z.nb); z.nb < k {
			z.err = io.ErrUnexpectedEOF
			return 0
		}
	}
	v := uint(z.bb) & (1<<k - 1)
	z.bb >>= k
	z.nb -= k
	return v
}

// stored copies a stored block: the rest of the current byte is skipped,
// then come LEN, its complement, and LEN bytes verbatim.
func (z *inflater) stored(out []byte, op int) (int, error) {
	pos := z.pos - int(z.nb>>3)
	z.bb, z.nb = 0, 0
	if len(z.in)-pos < 4 {
		return op, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(z.in[pos:]))
	switch pos += 4; {
	case n^int(binary.LittleEndian.Uint16(z.in[pos-2:])) != 0xffff:
		return op, errDeflate
	case n > len(z.in)-pos:
		return op, io.ErrUnexpectedEOF
	case n > len(out)-op:
		return op, errPastN
	}
	z.pos = pos + n
	return op + copy(out[op:], z.in[pos:z.pos]), nil
}

// dynamic reads a dynamic block's header into z.lit and z.dist.
func (z *inflater) dynamic() error {
	nlit, ndist, nclen := int(z.take(5))+257, int(z.take(5))+1, int(z.take(4))+4
	var cl [19]uint8
	for _, s := range clenOrder[:nclen] {
		cl[s] = uint8(z.take(3))
	}
	if nlit > 286 || ndist > 30 || !z.clen.init(cl[:]) {
		return errDeflate
	}
	lens := z.lens[:nlit+ndist]
	for i := 0; i < len(lens) && z.err == nil; {
		if z.nb < 7 {
			z.pos, z.bb, z.nb = refill(z.in, z.pos, z.bb, z.nb)
		}
		e := z.clen.fast[z.bb&(1<<fastBits-1)] // at most 7 bits: never long
		z.take(uint(e & 15))
		rep, l := 1, uint8(e>>4)
		switch {
		case e == 0 || l == 16 && i == 0: // no such code; "repeat the previous length" with none
			return errDeflate
		case l == 16:
			rep, l = 3+int(z.take(2)), lens[i-1]
		case l == 17:
			rep, l = 3+int(z.take(3)), 0
		case l == 18:
			rep, l = 11+int(z.take(7)), 0
		}
		if rep > len(lens)-i {
			return errDeflate
		}
		for ; rep > 0; rep-- {
			lens[i] = l
			i++
		}
	}
	if !z.lit.init(lens[:nlit]) || !z.dist.init(lens[nlit:]) {
		return errDeflate
	}
	return nil
}

// block decodes the symbols of one compressed block into out from op on
// and returns the new op, with the bit buffer in locals for the duration.
// A symbol is looked up before it is known that the input still holds all
// of it: past its end the buffer reads as zeros and is not refilled, nb
// wraps below zero, and whatever the zeros decode to — literals until out
// is full, a bad match, the end of the block — ends in an error.
func (z *inflater) block(lit, dist *huffman, out []byte, op int) (int, error) {
	in, pos, bb, nb := z.in, z.pos, z.bb, z.nb
	for {
		if nb < 48 { // what a length and a distance with their extra bits take
			pos, bb, nb = refill(in, pos, bb, nb)
		}
		e := lit.fast[bb&(1<<fastBits-1)]
		if e == 0 {
			e = lit.long(bb)
		}
		bb >>= e & 15
		nb -= uint(e & 15)
		if e>>4 < 256 {
			if uint(op) >= uint(len(out)) {
				return op, errPastN
			}
			out[op] = byte(e >> 4)
			op++
			continue
		} else if e>>4 == 256 {
			break
		}
		s := (e>>4 - 257) & 31
		x := uint(lenExtra[s])
		n := int(lenBase[s]) + int(bb&(1<<x-1))
		bb >>= x
		nb -= x
		if e = dist.fast[bb&(1<<fastBits-1)]; e == 0 {
			e = dist.long(bb)
		}
		bb >>= e & 15
		nb -= uint(e & 15)
		s = e >> 4 & 31
		x = uint(distExtra[s])
		d := int(distBase[s]) + int(bb&(1<<x-1))
		bb >>= x
		nb -= x
		switch {
		case n == 0 || uint(d-1) >= uint(op): // a symbol with no meaning, or a match from before the output
			return op, errDeflate
		case n > len(out)-op:
			return op, errPastN
		}
		// The match is copied from the output itself; where it overlaps its
		// source, each pass doubles what there is to copy from.
		for src := op - d; n > 0; {
			m := copy(out[op:op+n], out[src:op])
			op += m
			n -= m
		}
	}
	if nb > 63 { // wrapped
		return op, io.ErrUnexpectedEOF
	}
	z.pos, z.bb, z.nb = pos, bb, nb
	return op, nil
}
