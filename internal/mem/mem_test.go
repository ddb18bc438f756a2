package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroReads(t *testing.T) {
	m := New()
	for _, addr := range []Word{0, 1, PageWords - 1, PageWords, 1 << 30, -5} {
		if got := m.Load(addr); got != 0 {
			t.Fatalf("Load(%d) = %d on empty memory", addr, got)
		}
	}
	if m.PageCount() != 0 {
		t.Fatalf("empty memory has %d pages", m.PageCount())
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	m := New()
	m.Store(7, 42)
	m.Store(PageWords+3, -9)
	m.Store(7, 43)
	if got := m.Load(7); got != 43 {
		t.Fatalf("Load(7) = %d, want 43", got)
	}
	if got := m.Load(PageWords + 3); got != -9 {
		t.Fatalf("Load = %d, want -9", got)
	}
	if m.PageCount() != 2 {
		t.Fatalf("pages = %d, want 2", m.PageCount())
	}
}

func TestZeroStoreStaysSparse(t *testing.T) {
	m := New()
	for i := Word(0); i < 10*PageWords; i += PageWords {
		m.Store(i, 0)
	}
	if m.PageCount() != 0 {
		t.Fatalf("zero stores materialised %d pages", m.PageCount())
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m := New()
	m.Store(5, 1)
	m.Store(PageWords+5, 2)
	snap := m.Snapshot()
	m.Store(5, 100)
	m.Store(2*PageWords, 3)
	if got := snap.Peek(5); got != 1 {
		t.Fatalf("snapshot saw later write: %d", got)
	}
	if got := snap.Peek(2 * PageWords); got != 0 {
		t.Fatalf("snapshot saw page created later: %d", got)
	}
	if got := m.Load(5); got != 100 {
		t.Fatalf("memory lost its write: %d", got)
	}
	// Restore gives the snapshot contents back.
	r := snap.Restore()
	if got := r.Load(5); got != 1 {
		t.Fatalf("restore Load(5) = %d, want 1", got)
	}
	// Writes to the restored memory do not leak anywhere.
	r.Store(5, 77)
	if snap.Peek(5) != 1 || m.Load(5) != 100 {
		t.Fatal("restored memory write leaked into snapshot or original")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New()
	m.Store(1, 10)
	c := m.Clone()
	c.Store(1, 20)
	m.Store(2, 30)
	if m.Load(1) != 10 || c.Load(1) != 20 || c.Load(2) != 0 {
		t.Fatal("clone and original are entangled")
	}
}

func TestHashSemanticEquality(t *testing.T) {
	a, b := New(), New()
	a.Store(3, 9)
	a.Store(PageWords*7, 5)
	b.Store(PageWords*7, 5)
	b.Store(3, 9)
	if a.Hash() != b.Hash() {
		t.Fatal("same contents, different hashes")
	}
	// A page written then zeroed hashes like an untouched page.
	c := New()
	c.Store(3, 9)
	c.Store(PageWords*7, 5)
	c.Store(PageWords*3, 1)
	c.Store(PageWords*3, 0)
	if c.Hash() != a.Hash() {
		t.Fatal("explicitly-zeroed page changed the hash")
	}
	b.Store(4, 1)
	if a.Hash() == b.Hash() {
		t.Fatal("different contents, same hash")
	}
}

func TestSnapshotHashMatchesMemory(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		m.Store(Word(i*37), Word(i))
	}
	snap := m.Snapshot()
	if snap.Hash() != m.Hash() {
		t.Fatal("snapshot hash differs from memory hash at capture")
	}
	m.Store(0, 999)
	if snap.Hash() == m.Hash() {
		t.Fatal("hashes still equal after divergence")
	}
}

func TestCopyOnWriteStats(t *testing.T) {
	m := New()
	m.Store(0, 1)
	m.ResetStats()
	snap := m.Snapshot()
	m.Store(1, 2) // same page, shared -> copy
	st := m.Stats()
	if st.PagesCopied != 1 {
		t.Fatalf("PagesCopied = %d, want 1", st.PagesCopied)
	}
	m.Store(2, 3) // now private, no copy
	if m.Stats().PagesCopied != 1 {
		t.Fatal("second write to private page copied again")
	}
	snap.Release()
}

func TestReleaseAllowsInPlaceWrites(t *testing.T) {
	m := New()
	m.Store(0, 1)
	snap := m.Snapshot()
	snap.Release()
	m.ResetStats()
	m.Store(1, 2)
	if m.Stats().PagesCopied != 0 {
		t.Fatal("write after release still copied the page")
	}
}

func TestRestoreAfterReleasePanics(t *testing.T) {
	m := New()
	m.Store(0, 1)
	snap := m.Snapshot()
	snap.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Restore on released snapshot did not panic")
		}
	}()
	snap.Restore()
}

func TestDiffPages(t *testing.T) {
	a, b := New(), New()
	a.Store(0, 1)
	b.Store(0, 1)
	if d := a.DiffPages(b); len(d) != 0 {
		t.Fatalf("equal memories diff: %v", d)
	}
	b.Store(PageWords*5, 7)
	d := a.DiffPages(b)
	if len(d) != 1 || d[0] != 5 {
		t.Fatalf("diff = %v, want [5]", d)
	}
	a.Store(1, 2)
	if d := a.DiffPages(b); len(d) != 2 {
		t.Fatalf("diff = %v, want two pages", d)
	}
}

func TestStoreRangeLoadRange(t *testing.T) {
	m := New()
	vals := []Word{1, 2, 3, 4, 5}
	m.StoreRange(PageWords-2, vals) // crosses a page boundary
	got := m.LoadRange(PageWords-2, 5)
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("LoadRange[%d] = %d, want %d", i, got[i], v)
		}
	}
}

// TestQuickMemoryVsModel drives random operations against both the paged
// memory and a plain map, checking every read and the final hash-equality
// property between two independently built instances.
func TestQuickMemoryVsModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		model := make(map[Word]Word)
		var snaps []*Snapshot
		var snapModels []map[Word]Word
		for op := 0; op < 500; op++ {
			addr := Word(rng.Intn(4 * PageWords))
			switch rng.Intn(5) {
			case 0, 1, 2:
				v := Word(rng.Intn(100) - 50)
				m.Store(addr, v)
				model[addr] = v
			case 3:
				if m.Load(addr) != model[addr] {
					return false
				}
			case 4:
				if len(snaps) < 4 {
					snaps = append(snaps, m.Snapshot())
					sm := make(map[Word]Word, len(model))
					for k, v := range model {
						sm[k] = v
					}
					snapModels = append(snapModels, sm)
				}
			}
		}
		for i, s := range snaps {
			for k, v := range snapModels[i] {
				if s.Peek(k) != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPageCacheCoherence is a seeded differential test of the page cache:
// a family of memories and snapshots sharing pages copy-on-write, driven
// through Store/Load/Peek/Snapshot/Restore/Clone/Release with every page
// index drawn from a few that collide in the cache (equal modulo its
// size), so slots are evicted and refilled constantly and a slot left
// pointing at a page its memory has since replaced would be read. The
// model is a plain word map per holder plus a reference count per page
// identity, which predicts PagesNew and PagesCopied exactly: the cache
// may change how a page is found, never which pages are copied.
func TestPageCacheCoherence(t *testing.T) {
	type holder struct {
		words map[Word]Word // model contents
		pages map[Word]int  // page index -> page identity
	}
	cloneHolder := func(h *holder, refs map[int]int) *holder {
		c := &holder{words: make(map[Word]Word, len(h.words)), pages: make(map[Word]int, len(h.pages))}
		for k, v := range h.words {
			c.words[k] = v
		}
		for k, id := range h.pages {
			c.pages[k] = id
			refs[id]++
		}
		return c
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		refs := map[int]int{} // page identity -> holders mapping it
		nextID := 0
		type live struct {
			m                *Memory
			h                *holder
			wantNew, wantCow int64
		}
		type frozen struct {
			s *Snapshot
			h *holder
		}
		mems := []*live{{m: New(), h: &holder{words: map[Word]Word{}, pages: map[Word]int{}}}}
		var snaps []frozen
		addr := func() Word {
			idx := Word(rng.Intn(2)) + cacheSlots*Word(rng.Intn(5))
			return idx<<PageShift + Word(rng.Intn(3))
		}
		store := func(l *live, a, v Word) {
			l.m.Store(a, v)
			idx := a >> PageShift
			id, ok := l.h.pages[idx]
			switch {
			case !ok && v == 0:
				return // stays sparse
			case !ok:
				l.wantNew++
			case refs[id] > 1:
				refs[id]--
				l.wantCow++
			default:
				l.h.words[a] = v
				return
			}
			nextID++
			l.h.pages[idx], refs[nextID] = nextID, 1
			l.h.words[a] = v
		}
		for op := 0; op < 4000; op++ {
			l := mems[rng.Intn(len(mems))]
			a := addr()
			switch r := rng.Intn(20); {
			case r < 9:
				store(l, a, Word(rng.Intn(7)-1))
			case r < 13:
				if got := l.m.Load(a); got != l.h.words[a] {
					t.Fatalf("seed %d op %d: Load(%d) = %d, model %d", seed, op, a, got, l.h.words[a])
				}
			case r < 15:
				if got := l.m.Peek(a); got != l.h.words[a] {
					t.Fatalf("seed %d op %d: Peek(%d) = %d, model %d", seed, op, a, got, l.h.words[a])
				}
			case r < 17 && len(snaps) < 6:
				snaps = append(snaps, frozen{l.m.Snapshot(), cloneHolder(l.h, refs)})
				// A write right behind the snapshot must copy, not leak
				// through a cached pointer to the now-shared page.
				store(l, a, Word(op))
			case r < 18 && len(mems) < 5:
				mems = append(mems, &live{m: l.m.Clone(), h: cloneHolder(l.h, refs)})
				store(l, a, Word(-op))
			case r < 19 && len(snaps) > 0 && len(mems) < 5:
				f := snaps[rng.Intn(len(snaps))]
				mems = append(mems, &live{m: f.s.Restore(), h: cloneHolder(f.h, refs)})
			case len(snaps) > 0:
				k := rng.Intn(len(snaps))
				for _, id := range snaps[k].h.pages {
					refs[id]--
				}
				snaps[k].s.Release()
				snaps = append(snaps[:k], snaps[k+1:]...)
			}
			for _, f := range snaps {
				if got := f.s.Peek(a); got != f.h.words[a] {
					t.Fatalf("seed %d op %d: snapshot Peek(%d) = %d, model %d", seed, op, a, got, f.h.words[a])
				}
			}
		}
		for i, l := range mems {
			for a, v := range l.h.words {
				if got := l.m.Load(a); got != v {
					t.Fatalf("seed %d: memory %d Load(%d) = %d, model %d", seed, i, a, got, v)
				}
			}
			if st := l.m.Stats(); st.PagesNew != l.wantNew || st.PagesCopied != l.wantCow {
				t.Fatalf("seed %d: memory %d materialised %d and copied %d pages, model %d and %d",
					seed, i, st.PagesNew, st.PagesCopied, l.wantNew, l.wantCow)
			}
			if l.m.PageCount() != len(l.h.pages) {
				t.Fatalf("seed %d: memory %d maps %d pages, model %d", seed, i, l.m.PageCount(), len(l.h.pages))
			}
		}
	}
}

// TestQuickHashAgreement builds the same contents along two different write
// paths and requires equal hashes.
func TestQuickHashAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		writes := make(map[Word]Word)
		for i := 0; i < 200; i++ {
			writes[Word(rng.Intn(3*PageWords))] = Word(rng.Int63())
		}
		a, b := New(), New()
		for k, v := range writes {
			a.Store(k, v)
		}
		// b takes a noisy path: scribble then fix up.
		for k := range writes {
			b.Store(k, 123456)
		}
		b.Store(2*PageWords+1, 42)
		for k, v := range writes {
			b.Store(k, v)
		}
		if _, scribbled := writes[2*PageWords+1]; !scribbled {
			b.Store(2*PageWords+1, 0)
		}
		return a.Hash() == b.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// bytewiseHash is FNV-1a over the page's bytes, one multiply per byte: the
// definition contentHash takes its shortcut against.
func bytewiseHash(p *page) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range p.data {
		x := uint64(w)
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	return h
}

// TestContentHashMatchesBytewise holds the page hash — and with it every
// state hash in every recording — to byte-serial FNV-1a, whatever the
// words' widths.
func TestContentHashMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fill := func(f func(i int) Word) *page {
		p := newPage()
		for i := range p.data {
			p.data[i] = f(i)
		}
		return p
	}
	for name, p := range map[string]*page{
		"zero":       newPage(),
		"small":      fill(func(i int) Word { return Word(i % 300) }),
		"negative":   fill(func(i int) Word { return -Word(i) - 1 }),
		"full-width": fill(func(int) Word { return Word(rng.Uint64()) }),
		"one byte of each width": fill(func(i int) Word {
			return Word(uint64(1+rng.Intn(255)) << (8 * (i % 8)))
		}),
		"mixed": fill(func(i int) Word {
			if rng.Intn(3) == 0 {
				return 0
			}
			return Word(rng.Uint64() >> (8 * rng.Intn(8)))
		}),
		"sparse": fill(func(i int) Word {
			if i%97 == 0 {
				return Word(rng.Uint64())
			}
			return 0
		}),
	} {
		if got, want := p.contentHash(), bytewiseHash(p); got != want {
			t.Errorf("%s page: contentHash %016x, byte-serial FNV-1a %016x", name, got, want)
		}
	}
	if zeroPageHash != bytewiseHash(newPage()) {
		t.Errorf("zeroPageHash %016x is not the hash of a zero page", zeroPageHash)
	}
}

func BenchmarkStore(b *testing.B) {
	m := New()
	for i := 0; i < b.N; i++ {
		m.Store(Word(i&0xffff), Word(i))
	}
}

// BenchmarkLoadStoreInterleaved is the access pattern of a thread-parallel
// run: four streams, each local to its own page of a few hundred mapped,
// taking turns one access at a time.
func BenchmarkLoadStoreInterleaved(b *testing.B) {
	m := New()
	for pg := Word(0); pg < 300; pg++ {
		m.Store(pg*PageWords, 1)
	}
	var sum Word
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := Word(i&3)*5*PageWords + Word(i>>2)&pageMask
		sum += m.Load(addr)
		m.Store(addr, sum|1)
	}
}

func BenchmarkSnapshotRestore(b *testing.B) {
	m := New()
	for i := 0; i < 64*PageWords; i += 17 {
		m.Store(Word(i), Word(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := m.Snapshot()
		r := s.Restore()
		r.Store(0, Word(i))
		s.Release()
	}
}

// BenchmarkHashDirty hashes pages whose cached hashes are all stale: what
// a state hash costs per page written since the last one. Guest data is
// mostly small integers; "wide" is the worst case, eight bytes a word.
func BenchmarkHashDirty(b *testing.B) {
	for _, tc := range []struct {
		name string
		word func(i int) Word
	}{
		{"small", func(i int) Word { return Word(i % 1000) }},
		{"sparse", func(i int) Word {
			if i%16 == 0 {
				return Word(i)
			}
			return 0
		}},
		{"wide", func(i int) Word { return -Word(i) - 1 }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const pages = 16
			m := New()
			for i := 0; i < pages*PageWords; i++ {
				m.Store(Word(i), tc.word(i))
			}
			b.SetBytes(pages * PageWords * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range m.pages {
					p.hashOK = false
				}
				_ = m.Hash()
			}
		})
	}
}

func BenchmarkHashCached(b *testing.B) {
	m := New()
	for i := 0; i < 64*PageWords; i += 3 {
		m.Store(Word(i), Word(i))
	}
	m.Hash()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Store(5, Word(i)) // dirty one page
		_ = m.Hash()
	}
}
