package mem

import (
	"math/rand"
	"testing"
)

// FuzzStoreRange holds StoreRange to the loop of Store it replaces. Two
// memories are built alike over four consecutive pages — each left
// unmaterialised, written privately, written and shared with a snapshot,
// or materialised and zeroed again — plus a page 64 further on that
// competes for the first page's cache slot; only the first memory's page
// cache is then warmed or evicted. One range, from any offset and of any
// length up to three pages and a bit, is stored into both: StoreRange
// into the first, Store word by word into the second. Its values come in
// runs of zeros, of words equal to what is already there, of one word
// repeated and of changing words.
// Every word, Stats, Hash, PageCount and each page's cached-hash validity
// must agree, and the snapshot must not move.
func FuzzStoreRange(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0})                      // one mode per page, an empty range
	f.Add([]byte{1, 2, 2, 0, 7, 0xf0, 0x03, 0xff, 0x0b, 0, 0, 0, 1, 2, 3}) // across a shared page's end
	f.Add([]byte{0, 0, 0, 0, 0, 0x10, 0x00, 0x00, 0x0c, 0, 0, 0, 0, 0, 9}) // zeros first into unmaterialised pages
	f.Add([]byte{2, 2, 2, 2, 3, 0x00, 0x01, 0x00, 0x08, 1, 1, 1, 1, 1, 1}) // only words equal to the snapshot's
	f.Add([]byte("snapshot-shared pages, then a long run of mixed words"))
	f.Fuzz(checkStoreRange)
}

// TestStoreRange is FuzzStoreRange over random input, so the comparison
// runs in every `go test`.
func TestStoreRange(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 2000 && !t.Failed(); i++ {
		data := make([]byte, 8+rng.Intn(64))
		rng.Read(data)
		checkStoreRange(t, data)
	}
}

func checkStoreRange(t *testing.T, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	base := Word(int8(next())) * 5 // first page index; negative addresses too
	const far = 64                 // pages base and base+far share a cache slot
	idxs := []Word{base, base + 1, base + 2, base + 3, base + far}
	modes := make([]byte, len(idxs))
	for k := range modes {
		modes[k] = next() % 4
	}
	modes[len(idxs)-1] = 1
	got, want := New(), New()
	fillPages := func(shared bool) {
		for k, idx := range idxs {
			if (modes[k] == 2) == shared {
				fill(got, idx, modes[k])
				fill(want, idx, modes[k])
			}
		}
	}
	// Shared pages are written and snapshotted first; the others are
	// materialised after, so they stay private.
	fillPages(true)
	snap := got.Snapshot()
	want.Snapshot()
	fillPages(false)
	snapHash := snap.Hash()
	for _, m := range []*Memory{got, want} {
		m.Hash() // every page's cached hash valid, so a stale one shows
		m.ResetStats()
	}
	warm := next()
	for k, idx := range idxs {
		if warm>>k&1 != 0 {
			got.Load(idx<<PageShift + 1)
		}
	}

	start := base<<PageShift + Word(int(next())<<8|int(next()))%(4*PageWords)
	n := (int(next())<<8 | int(next())) % (3*PageWords + 100)
	vals := make([]Word, 0, n)
	for len(vals) < n {
		b := next()
		for run := 1 + int(b>>2)*int(b>>2); run > 0 && len(vals) < n; run-- {
			v := Word(0)
			switch b % 4 {
			case 1:
				v = want.Peek(start + Word(len(vals)))
			case 2:
				v = Word(b)
			case 3:
				v = Word(len(vals)) - Word(b)
			}
			vals = append(vals, v)
		}
	}
	got.StoreRange(start, vals)
	for i, v := range vals {
		want.Store(start+Word(i), v)
	}

	for _, idx := range idxs {
		for off := Word(0); off < PageWords; off++ {
			a := idx<<PageShift + off
			if g, w := got.Peek(a), want.Peek(a); g != w {
				t.Fatalf("word %d = %d, Store loop left %d", a, g, w)
			}
		}
		gp, wp := got.pages[idx], want.pages[idx]
		if (gp == nil) != (wp == nil) {
			t.Fatalf("page %d materialised: %v, Store loop: %v", idx, gp != nil, wp != nil)
		}
		if gp != nil && gp.hashOK != wp.hashOK {
			t.Fatalf("page %d cached hash valid: %v, Store loop: %v", idx, gp.hashOK, wp.hashOK)
		}
	}
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("Stats %+v, Store loop %+v", g, w)
	}
	if g, w := got.PageCount(), want.PageCount(); g != w {
		t.Fatalf("PageCount %d, Store loop %d", g, w)
	}
	if g, w := got.Hash(), want.Hash(); g != w {
		t.Fatalf("Hash %016x, Store loop %016x", g, w)
	}
	if snap.Hash() != snapHash {
		t.Fatal("StoreRange wrote through to the snapshot")
	}
}

// fill writes page idx of m as mode says: 0 nothing, 1 and 2 a sparse
// pattern of non-zero words, 3 a word that is zeroed again, so the page is
// materialised and all zero.
func fill(m *Memory, idx Word, mode byte) {
	a := idx << PageShift
	switch mode {
	case 1, 2:
		for j := Word(0); j < PageWords; j += 97 {
			m.Store(a+j, j+idx+1)
		}
	case 3:
		m.Store(a+5, 1)
		m.Store(a+5, 0)
	}
}
