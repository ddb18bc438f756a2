package store_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"doubleplay/internal/store"
)

// blocksRecording is raw bytes that span three object blocks: two that
// compress and a last one that does not, so an object of it holds both
// block forms.
func blocksRecording() []byte {
	raw := bytes.Repeat([]byte("doubleplay epoch "), 2*store.ObjectBlock/17+1)[:2*store.ObjectBlock]
	noise := make([]byte, 3000)
	rand.New(rand.NewSource(1)).Read(noise)
	return append(raw, noise...)
}

// resealed recomputes an object's header CRC after a test has edited the
// header, so that only the edit is wrong.
func resealed(obj []byte) []byte {
	out := bytes.Clone(obj)
	hlen := 21 + 4*int(binary.LittleEndian.Uint32(out[17:])) + 4
	binary.LittleEndian.PutUint32(out[hlen-4:], crc32.ChecksumIEEE(out[:hlen-4]))
	return out
}

// badObjects are damaged encodings of blocksRecording, each wrong in one
// way; the decoder must refuse every one.
func badObjects() []struct {
	name string
	data []byte
} {
	good := store.EncodeObject(blocksRecording())
	raw := binary.LittleEndian.Uint64(good[9:])
	withRaw := func(n uint64) []byte {
		out := bytes.Clone(good)
		binary.LittleEndian.PutUint64(out[9:], n)
		return resealed(out)
	}
	withEntry := func(i int, delta uint32) []byte {
		out := bytes.Clone(good)
		e := binary.LittleEndian.Uint32(out[21+4*i:])
		binary.LittleEndian.PutUint32(out[21+4*i:], e+delta)
		return resealed(out)
	}
	return []struct {
		name string
		data []byte
	}{
		{"truncated in the fixed header", good[:12]},
		{"truncated in the block table", good[:27]},
		{"truncated in the last block", good[:len(good)-1]},
		{"a block more than the raw length needs", withRaw(raw - 3000)},
		{"a block fewer than the raw length needs", withRaw(raw + store.ObjectBlock)},
		{"a raw length the last raw block does not hold", withRaw(raw - 1)},
		{"stored lengths that run past the file", withEntry(0, 1)},
		{"stored lengths that stop short of it", append(bytes.Clone(good), 0)},
		{"a DEFLATE block no smaller than its raw bytes", withEntry(1, store.ObjectBlock)},
		{"a bad header CRC", flip(good, 10)},
		{"a bad magic", append([]byte("DPRX"), good[4:]...)},
		{"another version", resealed(append(append([]byte("DPRO"), 2), good[5:]...))},
		{"another block size", resealed(append(append(bytes.Clone(good[:5]), 0, 0, 2, 0), good[9:]...))},
	}
}

// TestObjectRoundTrip encodes recordings of every length around the block
// boundaries, compressible and not, and decodes them back.
func TestObjectRoundTrip(t *testing.T) {
	noise := make([]byte, 3*store.ObjectBlock+5)
	rand.New(rand.NewSource(2)).Read(noise)
	for _, src := range [][]byte{blocksRecording(), noise} {
		for _, n := range []int{0, 1, store.ObjectBlock - 1, store.ObjectBlock, store.ObjectBlock + 1, len(src)} {
			if raw, err := store.DecodeObject(store.EncodeObject(src[:n])); err != nil || !bytes.Equal(raw, src[:n]) {
				t.Fatalf("%d bytes: round trip failed: %v", n, err)
			}
		}
	}
}

// TestObjectRefusesDamage holds the object decoder to refusing each kind
// of damage.
func TestObjectRefusesDamage(t *testing.T) {
	for _, bad := range badObjects() {
		if raw, err := store.DecodeObject(bad.data); err == nil {
			t.Errorf("%s: decoded to %d bytes", bad.name, len(raw))
		}
	}
}

// FuzzObject feeds arbitrary bytes to the object decoder. It must never
// panic, and what it accepts holds exactly the raw length its header
// declares.
func FuzzObject(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("DPRO"))
	f.Add(store.EncodeObject(nil))
	f.Add(store.EncodeObject([]byte("one short block")))
	f.Add(store.EncodeObject(encode(testRecording(1, 3))))
	f.Add(store.EncodeObject(blocksRecording()))
	for _, bad := range badObjects() {
		f.Add(bad.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if raw, err := store.DecodeObject(data); err == nil && uint64(len(raw)) != binary.LittleEndian.Uint64(data[9:]) {
			t.Fatalf("decoded %d bytes, the header declares %d", len(raw), binary.LittleEndian.Uint64(data[9:]))
		}
	})
}
