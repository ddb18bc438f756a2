package profile_test

import (
	"bytes"
	"reflect"
	"testing"

	"doubleplay/internal/profile"
)

// pb appends protobuf wire-format fields, for hand-encoding profiles the
// way an encoder other than MarshalPprof may write them.
type pb []byte

func (b pb) varint(v uint64) pb {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// uint appends an unpacked varint field.
func (b pb) uint(field int, v uint64) pb { return b.varint(uint64(field) << 3).varint(v) }

// msg appends a length-delimited field.
func (b pb) msg(field int, m []byte) pb {
	return append(b.varint(uint64(field)<<3|2).varint(uint64(len(m))), m...)
}

// fixed64 appends a fixed64 field, which profile.proto's readers skip.
func (b pb) fixed64(field int) pb {
	return append(b.varint(uint64(field)<<3|1), 1, 2, 3, 4, 5, 6, 7, 8)
}

// anyEncoder encodes prof as another encoder may: the string table first,
// then functions, locations, sample types and samples; sample types listed
// instructions-first, with their unit before their type; every repeat
// unpacked, a sample's values around its location ids; location ids that
// are not function ids; and fields ParsePprof ignores in between.
func anyEncoder(prof *profile.Profile) []byte {
	strs := []string{"", prof.Name, "count", "instructions", "cycles"}
	fnID := map[string]uint64{}
	var fns []string
	for _, s := range prof.Samples() {
		for _, fn := range s.Stack {
			if fnID[fn] == 0 {
				fns = append(fns, fn)
				fnID[fn] = uint64(len(fns))
			}
		}
	}
	var b pb
	for _, s := range append(strs, fns...) {
		b = b.msg(6, []byte(s))
	}
	for i := range fns {
		id := uint64(i + 1)
		b = b.msg(5, pb(nil).fixed64(7).uint(4, 1).uint(2, uint64(len(strs))+id-1).uint(1, id))
	}
	for i := range fns {
		id := uint64(i + 1)
		line := pb(nil).uint(2, 42).uint(1, id)
		b = b.msg(4, pb(nil).msg(4, line).uint(3, 0x1000).uint(1, 100+id))
	}
	b = b.msg(1, pb(nil).uint(2, 2).uint(1, 3))
	b = b.msg(1, pb(nil).uint(2, 2).uint(1, 4))
	for _, s := range prof.Samples() {
		m := pb(nil).uint(2, uint64(s.Instrs))
		for i := len(s.Stack) - 1; i >= 0; i-- { // leaf first
			m = m.uint(1, 100+fnID[s.Stack[i]])
		}
		b = b.msg(2, m.uint(2, uint64(s.Cycles)))
	}
	return b
}

// folded renders a profile's samples for a failure message.
func folded(p *profile.Profile) string {
	var b bytes.Buffer
	p.WriteFolded(&b)
	return b.String()
}

// TestParsePprofAnyEncoder holds ParsePprof to its documented acceptance of
// any encoder's output: the same profile, encoded as anyEncoder does,
// parses to the stacks and name of MarshalPprof's original.
func TestParsePprofAnyEncoder(t *testing.T) {
	prof := profileCallers(t)
	prof.Name = "callers"
	back, err := profile.ParsePprof(anyEncoder(prof))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != prof.Name {
		t.Fatalf("program name %q, want %q", back.Name, prof.Name)
	}
	if !reflect.DeepEqual(back.Samples(), prof.Samples()) {
		t.Fatalf("samples\n%s\nwant\n%s", folded(back), folded(prof))
	}
	if !bytes.Equal(back.MarshalPprof(), prof.MarshalPprof()) {
		t.Fatal("re-marshalled profile differs from the original's bytes")
	}
}

// FuzzParsePprof feeds ParsePprof arbitrary bytes. It may refuse them but
// must not panic, and a profile it accepts must survive MarshalPprof: the
// bytes parse back to the same samples, and to the same name whenever a
// sample has a frame to carry it (MarshalPprof writes the name as the
// functions' filename).
func FuzzParsePprof(f *testing.F) {
	prof := profileCallers(f)
	prof.Name = "callers"
	f.Add(prof.MarshalPprof())
	f.Add(anyEncoder(prof))
	f.Add(profile.NewProfile("empty").MarshalPprof())
	f.Add([]byte("not a protobuf"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := profile.ParsePprof(data)
		if err != nil {
			return
		}
		q, err := profile.ParsePprof(p.MarshalPprof())
		if err != nil {
			t.Fatalf("MarshalPprof's bytes do not parse: %v", err)
		}
		if !reflect.DeepEqual(q.Samples(), p.Samples()) {
			t.Fatalf("samples after a round trip\n%s\nwant\n%s", folded(q), folded(p))
		}
		for _, s := range p.Samples() {
			if len(s.Stack) > 0 && q.Name != p.Name {
				t.Fatalf("name %q after a round trip, want %q", q.Name, p.Name)
			}
		}
	})
}
