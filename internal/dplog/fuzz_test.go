package dplog

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzUnmarshal drives the reader with arbitrary bytes. It must never
// panic; whole-file decode must be the reader's own decode and must fail
// exactly when the reader fell back to recovery or Verify fails; and whatever decodes
// must survive a re-encode round trip and a one-epoch extraction.
func FuzzUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		rec := randomRecording(rng)
		f.Add(MarshalBytes(rec))
		f.Add(MarshalBytesWith(rec, EncodeOptions{}))
	}
	whole := MarshalBytes(fixtureRecording())
	f.Add(whole[:len(whole)-footerLen-2])              // cut inside the index
	f.Add(append(append([]byte(nil), whole...), 0, 0)) // bytes after the footer
	f.Add([]byte(magic))
	f.Add([]byte("DPLG\x06"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, uerr := UnmarshalBytes(data)
		rd, err := OpenReaderBytes(data)
		if err != nil {
			if uerr == nil {
				t.Fatal("UnmarshalBytes decoded a file the reader cannot open")
			}
			return
		}
		full, rerr := rd.Recording()
		switch {
		case rd.Recovered() && uerr == nil:
			t.Fatal("UnmarshalBytes accepted a file the reader had to recover")
		case !rd.Recovered() && (uerr == nil) != (rerr == nil):
			t.Fatalf("intact reader: UnmarshalBytes err %v, Recording err %v", uerr, rerr)
		case uerr == nil && !reflect.DeepEqual(rec, full):
			t.Fatal("UnmarshalBytes is not the reader's Recording")
		case (rd.Verify() == nil) != (uerr == nil):
			t.Fatalf("Verify disagrees with UnmarshalBytes (%v)", uerr)
		}
		if streamed, serr := Unmarshal(io.MultiReader(bytes.NewReader(data))); (serr == nil) != (uerr == nil) ||
			(serr == nil && !reflect.DeepEqual(streamed, rec)) {
			t.Fatalf("Unmarshal over a stream disagrees with UnmarshalBytes (%v vs %v)", serr, uerr)
		}
		if rerr != nil {
			return
		}
		again, err := UnmarshalBytes(MarshalBytes(full))
		if err != nil {
			t.Fatalf("re-encode of a decodable input failed: %v", err)
		}
		if !reflect.DeepEqual(normalize(again), normalize(full)) {
			t.Fatal("re-encode round trip changed the recording")
		}
		if rd.NumSections() > 0 {
			var buf bytes.Buffer
			first := full.Epochs[0].Index
			if err := rd.WriteRange(&buf, first, first); err == nil {
				if sub, err := OpenReaderBytes(buf.Bytes()); err != nil || sub.Recovered() {
					t.Fatalf("WriteRange emitted a log that does not open intact: %v", err)
				}
			}
		}
	})
}

// FuzzUpgrade drives the one remaining decoder of the retired flat
// layouts (and the repair path) with arbitrary bytes: it must never
// panic, and whatever it emits must open as an intact current-format
// log that a second Upgrade leaves alone.
func FuzzUpgrade(f *testing.F) {
	f.Add(encodeLegacy(legacyFixture(4), 4))
	f.Add(encodeLegacy(legacyFixture(5), 5))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3; i++ {
		rec := randomRecording(rng)
		f.Add(encodeLegacy(rec, 5))
		data := MarshalBytes(rec)
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		up, changed, err := Upgrade(data)
		if err != nil {
			return
		}
		if !changed && !bytes.Equal(up, data) {
			t.Fatal("Upgrade reported no change but returned different bytes")
		}
		rd, err := OpenReaderBytes(up)
		if err != nil || rd.Recovered() || rd.Header().Version != FormatVersion {
			t.Fatalf("Upgrade output does not open intact: %v", err)
		}
		if _, err := rd.Recording(); err != nil && changed {
			t.Fatalf("Upgrade rewrote the log but its output does not decode: %v", err)
		}
		if again, changed, err := Upgrade(up); err != nil || changed || !bytes.Equal(again, up) {
			t.Fatalf("second Upgrade: changed=%v err=%v", changed, err)
		}
	})
}
