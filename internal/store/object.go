package store

// A recording is stored as one object: a small header, then the recording's
// bytes in independent blocks, each a DEFLATE stream of its own or, when
// compressing does not shrink it, the raw bytes, so a reader inflates only
// the blocks a read touches. docs/FORMAT.md has the normative layout:
//
//	"DPRO"           magic (4 bytes)
//	u8     version   1
//	u32 LE block     raw bytes per block: 65536, the only size version 1 has
//	u64 LE raw       the recording's length
//	u32 LE count     number of blocks: ceil(raw / block)
//	count × u32 LE   a block's stored length; bit 31 set when it is DEFLATE
//	u32 LE CRC-32    (IEEE) over every header byte before it
//	the blocks, in order, ending exactly at the end of the file
//
// The object is named by the digest of the raw recording. The CRC guards
// the header; a damaged block fails to inflate, or fails fsck's digest.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"doubleplay/internal/dplog"
)

const (
	objectMagic   = "DPRO"
	objectVersion = 1

	// objectBlock is a block's raw size: small enough that a seek inflates
	// at most two blocks, large enough to compress nearly as well as the
	// whole file (DESIGN.md, "A recording is one object").
	objectBlock = 64 << 10

	objectFixed = 21      // the header's length before its block table
	deflated    = 1 << 31 // marks a DEFLATE block in its table entry

	maxRaw = 1 << 40 // bounds a header's raw length against hostile input
)

var errBadObject = errors.New("store: bad recording object")

// objectHeader is a decoded object header.
type objectHeader struct {
	raw   int64
	table []uint32 // per block: stored length, | deflated
	off   []int64  // file offset of each block, and of the end
}

// blockRaw is block i's raw length.
func (h *objectHeader) blockRaw(i int) int64 { return min(objectBlock, h.raw-int64(i)*objectBlock) }

// inflate recovers block i's raw bytes from its stored bytes.
func (h *objectHeader) inflate(i int, stored []byte) ([]byte, error) {
	if h.table[i]&deflated == 0 {
		return stored, nil
	}
	raw, err := dplog.Inflate(stored, h.blockRaw(i))
	if err != nil {
		return nil, fmt.Errorf("store: block %d: %w", i, err)
	}
	return raw, nil
}

// encodeObject renders a recording as an object.
func encodeObject(raw []byte) []byte {
	count := (len(raw) + objectBlock - 1) / objectBlock
	hlen := objectFixed + 4*count + 4
	buf := make([]byte, hlen, hlen+len(raw)) // no block outgrows its raw bytes
	for i := 0; i < count; i++ {
		b := raw[i*objectBlock : min((i+1)*objectBlock, len(raw))]
		start, entry := len(buf), uint32(0)
		if z := dplog.Deflate(buf, b); z != nil {
			buf, entry = z, deflated
		} else {
			buf = append(buf, b...)
		}
		binary.LittleEndian.PutUint32(buf[objectFixed+4*i:], entry|uint32(len(buf)-start))
	}
	copy(buf, objectMagic)
	buf[4] = objectVersion
	binary.LittleEndian.PutUint32(buf[5:], objectBlock)
	binary.LittleEndian.PutUint64(buf[9:], uint64(len(raw)))
	binary.LittleEndian.PutUint32(buf[17:], uint32(count))
	binary.LittleEndian.PutUint32(buf[hlen-4:], crc32.ChecksumIEEE(buf[:hlen-4]))
	return buf
}

// headerLen is the length of the header that b begins with, or len(b) when
// b is too short to tell.
func headerLen(b []byte) int64 {
	if len(b) < objectFixed {
		return int64(len(b))
	}
	return objectFixed + 4*int64(binary.LittleEndian.Uint32(b[17:])) + 4
}

// decodeHeader parses and validates the header that b begins with, for an
// object of size bytes: magic, version, bounds, a block count that covers the
// raw length exactly, the CRC, and a block table that tiles the rest of the
// object exactly — a raw block stores its raw length, a DEFLATE block less.
// It never panics on corrupt input (FuzzObject).
func decodeHeader(b []byte, size int64) (*objectHeader, error) {
	if len(b) < objectFixed || string(b[:4]) != objectMagic {
		return nil, fmt.Errorf("%w: bad magic or truncated", errBadObject)
	}
	block, raw := binary.LittleEndian.Uint32(b[5:]), binary.LittleEndian.Uint64(b[9:])
	switch {
	case b[4] != objectVersion:
		return nil, fmt.Errorf("%w: version %d", errBadObject, b[4])
	case block != objectBlock || raw > maxRaw:
		return nil, fmt.Errorf("%w: block %d, raw length %d", errBadObject, block, raw)
	}
	h := &objectHeader{raw: int64(raw)}
	count := int64(binary.LittleEndian.Uint32(b[17:]))
	hlen := headerLen(b)
	switch {
	case count != (h.raw+objectBlock-1)/objectBlock:
		return nil, fmt.Errorf("%w: %d blocks for %d raw bytes", errBadObject, count, h.raw)
	case int64(len(b)) < hlen || hlen > size:
		return nil, fmt.Errorf("%w: truncated header", errBadObject)
	case crc32.ChecksumIEEE(b[:hlen-4]) != binary.LittleEndian.Uint32(b[hlen-4:]):
		return nil, fmt.Errorf("%w: header CRC mismatch", errBadObject)
	}
	h.table = make([]uint32, count)
	h.off = make([]int64, count+1)
	h.off[0] = hlen
	for i := range h.table {
		e := binary.LittleEndian.Uint32(b[objectFixed+4*i:])
		n, want := int64(e&^deflated), h.blockRaw(i)
		if e&deflated == 0 && n != want || e&deflated != 0 && (n == 0 || n >= want) {
			return nil, fmt.Errorf("%w: block %d stores %d bytes for %d", errBadObject, i, n, want)
		}
		h.table[i], h.off[i+1] = e, h.off[i]+n
	}
	if end := h.off[count]; end != size {
		return nil, fmt.Errorf("%w: blocks end at %d in a %d-byte object", errBadObject, end, size)
	}
	return h, nil
}

// decodeObject recovers the recording an object holds.
func decodeObject(data []byte) ([]byte, error) {
	h, err := decodeHeader(data, int64(len(data)))
	if err != nil {
		return nil, err
	}
	var raw []byte // not h.raw's worth up front: the header is input too
	for i := range h.table {
		b, err := h.inflate(i, data[h.off[i]:h.off[i+1]])
		if err != nil {
			return nil, err
		}
		raw = append(raw, b...)
	}
	return raw, nil
}

// openObject opens an object file and decodes its header. The caller closes
// the file.
func openObject(path string) (*os.File, *objectHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	h, err := readHeader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, h, nil
}

// readHeader reads and decodes an open object's header: a 4 KiB prefix,
// which holds the whole header of a recording up to 63 MiB, then the rest
// of a longer one.
func readHeader(f *os.File) (*objectHeader, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	b := make([]byte, min(info.Size(), 4096))
	if _, err := f.ReadAt(b, 0); err != nil {
		return nil, err
	}
	if n := headerLen(b); n > int64(len(b)) && n <= info.Size() {
		b = make([]byte, n)
		if _, err := f.ReadAt(b, 0); err != nil {
			return nil, err
		}
	}
	return decodeHeader(b, info.Size())
}
