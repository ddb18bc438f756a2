package profile

// Hand-rolled pprof profile.proto encoding and decoding. The repo takes no
// module dependencies, so the wire format is produced and consumed directly:
// profile.proto uses only varint scalars, packed repeated varints, and
// length-delimited submessages, all trivial to emit by hand.
//
// The encoder is canonical: given equal Profiles (same samples, same name)
// it produces identical bytes. Strings are interned in a fixed order (the
// sample-type vocabulary, then sorted function names, then the program name
// as the filename), functions and locations are numbered by sorted-name
// position, samples are emitted in canonical key order with leaf-first
// location ids (the pprof convention), and no wall-clock metadata is
// stamped. Record/replay bit-identity tests compare these bytes directly.

import (
	"fmt"
	"io"
	"sort"
)

// profile.proto field numbers.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	vtType = 1
	vtUnit = 2

	sampleLocationID = 1
	sampleValue      = 2

	locID   = 1
	locLine = 4

	lineFunctionID = 1

	funcID       = 1
	funcName     = 2
	funcSysName  = 3
	funcFilename = 4
)

type protoBuf struct{ b []byte }

func (w *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

func (w *protoBuf) tag(field, wire int) { w.varint(uint64(field)<<3 | uint64(wire)) }

// intField emits a varint field, omitting proto3 zero defaults.
func (w *protoBuf) intField(field int, v uint64) {
	if v == 0 {
		return
	}
	w.tag(field, 0)
	w.varint(v)
}

func (w *protoBuf) bytesField(field int, data []byte) {
	w.tag(field, 2)
	w.varint(uint64(len(data)))
	w.b = append(w.b, data...)
}

func (w *protoBuf) packed(field int, vs []uint64) {
	if len(vs) == 0 {
		return
	}
	var body protoBuf
	for _, v := range vs {
		body.varint(v)
	}
	w.bytesField(field, body.b)
}

// MarshalPprof encodes the profile as a canonical pprof profile.proto
// message with two sample values per stack: [cycles, instructions].
func (p *Profile) MarshalPprof() []byte {
	strtab := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		i := uint64(len(strtab))
		strtab = append(strtab, s)
		strIdx[s] = i
		return i
	}
	cyclesIdx := intern("cycles")
	countIdx := intern("count")
	instrsIdx := intern("instructions")

	samples := p.Samples()
	fnID := make(map[string]uint64)
	var fnNames []string
	for _, s := range samples {
		for _, fn := range s.Stack {
			if _, ok := fnID[fn]; !ok {
				fnID[fn] = 0
				fnNames = append(fnNames, fn)
			}
		}
	}
	sort.Strings(fnNames)
	for i, fn := range fnNames {
		fnID[fn] = uint64(i + 1)
		intern(fn)
	}
	fileIdx := intern(p.Name)

	var out protoBuf
	for _, vt := range [][2]uint64{{cyclesIdx, countIdx}, {instrsIdx, countIdx}} {
		var m protoBuf
		m.intField(vtType, vt[0])
		m.intField(vtUnit, vt[1])
		out.bytesField(profSampleType, m.b)
	}
	for _, s := range samples {
		var m protoBuf
		locs := make([]uint64, len(s.Stack))
		for i, fn := range s.Stack {
			locs[len(s.Stack)-1-i] = fnID[fn] // leaf first
		}
		m.packed(sampleLocationID, locs)
		m.packed(sampleValue, []uint64{uint64(s.Cycles), uint64(s.Instrs)})
		out.bytesField(profSample, m.b)
	}
	for i := range fnNames {
		var m protoBuf
		m.intField(locID, uint64(i+1))
		var ln protoBuf
		ln.intField(lineFunctionID, uint64(i+1))
		m.bytesField(locLine, ln.b)
		out.bytesField(profLocation, m.b)
	}
	for i, fn := range fnNames {
		var m protoBuf
		m.intField(funcID, uint64(i+1))
		m.intField(funcName, strIdx[fn])
		m.intField(funcSysName, strIdx[fn])
		m.intField(funcFilename, fileIdx)
		out.bytesField(profFunction, m.b)
	}
	for _, s := range strtab {
		out.bytesField(profStringTable, []byte(s))
	}
	return out.b
}

// WritePprof writes MarshalPprof's bytes to w.
func (p *Profile) WritePprof(w io.Writer) error {
	_, err := w.Write(p.MarshalPprof())
	return err
}

// ---------------------------------------------------------------------------
// Decoding

type protoReader struct {
	b   []byte
	pos int
}

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if r.pos >= len(r.b) {
			return 0, fmt.Errorf("pprof: truncated varint")
		}
		if shift >= 64 {
			return 0, fmt.Errorf("pprof: varint overflow")
		}
		c := r.b[r.pos]
		r.pos++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
}

// advance moves past n bytes, failing when fewer remain.
func (r *protoReader) advance(n uint64, what string) ([]byte, error) {
	if n > uint64(len(r.b)-r.pos) {
		return nil, fmt.Errorf("pprof: truncated %s", what)
	}
	out := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

// protoField is one field of a message: its number and wire type, and its
// value, a varint (wire type 0) or the bytes of a length-delimited field
// (wire type 2). Fixed-width values are skipped unread.
type protoField struct {
	num, wire int
	v         uint64
	b         []byte
}

// walk calls f for each field of the message b, in wire order.
func walk(b []byte, f func(protoField) error) error {
	r := protoReader{b: b}
	for r.pos < len(r.b) {
		k, err := r.varint()
		if err != nil {
			return err
		}
		fd := protoField{num: int(k >> 3), wire: int(k & 7)}
		switch fd.wire {
		case 0:
			fd.v, err = r.varint()
		case 1:
			_, err = r.advance(8, "fixed64")
		case 2:
			var n uint64
			if n, err = r.varint(); err == nil {
				fd.b, err = r.advance(n, "bytes field")
			}
		case 5:
			_, err = r.advance(4, "fixed32")
		default:
			err = fmt.Errorf("pprof: unsupported wire type %d", fd.wire)
		}
		if err == nil {
			err = f(fd)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// varints appends one occurrence of a repeated varint field: a single
// unpacked element (wire type 0) or a packed run (wire type 2).
func (fd protoField) varints(into []uint64) ([]uint64, error) {
	if fd.wire != 2 {
		return append(into, fd.v), nil
	}
	r := protoReader{b: fd.b}
	for r.pos < len(r.b) {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		into = append(into, v)
	}
	return into, nil
}

// ParsePprof decodes a pprof profile.proto message back into a Profile.
// It understands any encoder's output (packed or unpacked repeats, fields in
// any order), not just MarshalPprof's: sample values are matched to the
// "cycles" and "instructions" sample types by name, stacks are symbolised
// through location -> line -> function -> string table, and the program name
// is recovered from the functions' filename.
func ParsePprof(data []byte) (*Profile, error) {
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		sampleTypes []uint64 // type string indices
		rawSamples  []rawSample
		locFn       = make(map[uint64]uint64) // location id -> function id
		fnNameIdx   = make(map[uint64]uint64) // function id -> name string index
		fnFileIdx   uint64
		strtab      []string
	)
	err := walk(data, func(top protoField) error {
		switch top.num {
		case profSampleType:
			var typ uint64
			err := walk(top.b, func(fd protoField) error {
				if fd.num == vtType {
					typ = fd.v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, typ)
			return err
		case profSample:
			var s rawSample
			err := walk(top.b, func(fd protoField) (err error) {
				switch fd.num {
				case sampleLocationID:
					s.locs, err = fd.varints(s.locs)
				case sampleValue:
					s.vals, err = fd.varints(s.vals)
				}
				return err
			})
			rawSamples = append(rawSamples, s)
			return err
		case profLocation:
			var id, fn uint64
			err := walk(top.b, func(fd protoField) error {
				switch fd.num {
				case locID:
					id = fd.v
				case locLine:
					return walk(fd.b, func(ln protoField) error {
						if ln.num == lineFunctionID && fn == 0 {
							fn = ln.v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case profFunction:
			var id, name uint64
			err := walk(top.b, func(fd protoField) error {
				switch fd.num {
				case funcID:
					id = fd.v
				case funcName:
					name = fd.v
				case funcFilename:
					fnFileIdx = fd.v
				}
				return nil
			})
			fnNameIdx[id] = name
			return err
		case profStringTable:
			strtab = append(strtab, string(top.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strtab)) {
			return strtab[i]
		}
		return ""
	}
	cyclesAt, instrsAt := -1, -1
	for i, typ := range sampleTypes {
		switch str(typ) {
		case "cycles":
			cyclesAt = i
		case "instructions":
			instrsAt = i
		}
	}
	if cyclesAt < 0 && len(sampleTypes) > 0 {
		cyclesAt = 0
	}
	prof := NewProfile(str(fnFileIdx))
	for _, s := range rawSamples {
		stack := make([]string, len(s.locs))
		for i, loc := range s.locs { // leaf first on the wire
			stack[len(s.locs)-1-i] = str(fnNameIdx[locFn[loc]])
		}
		var cycles, instrs int64
		if cyclesAt >= 0 && cyclesAt < len(s.vals) {
			cycles = int64(s.vals[cyclesAt])
		}
		if instrsAt >= 0 && instrsAt < len(s.vals) {
			instrs = int64(s.vals[instrsAt])
		}
		prof.add(stack, cycles, instrs)
	}
	return prof, nil
}
