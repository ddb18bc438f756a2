package mem

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
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

// TestReloadOfLiveMemoryPanics holds Reload to released memories: one
// that still maps pages would drop its references unreleased.
func TestReloadOfLiveMemoryPanics(t *testing.T) {
	m := New()
	m.Store(0, 1)
	snap := m.Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("Reload of an unreleased memory did not panic")
		}
	}()
	m.Reload(snap)
}

// TestReleasedPanics holds every other read of a released snapshot, and a
// read of a released memory that misses its (emptied) page cache, to a
// panic as TestRestoreAfterReleasePanics does Restore: the pages they
// mapped may already back another execution. Releasing twice is a no-op.
func TestReleasedPanics(t *testing.T) {
	released := func() (*Memory, *Snapshot) {
		m := New()
		m.Store(0, 1)
		m.Load(0) // fill the cache slot Release must empty
		s := m.Snapshot()
		m.Release()
		m.Release()
		s.Release()
		s.Release()
		return m, s
	}
	for name, read := range map[string]func(*Memory, *Snapshot){
		"Memory.Load":          func(m *Memory, _ *Snapshot) { m.Load(0) },
		"Memory.Load unmapped": func(m *Memory, _ *Snapshot) { m.Load(5 * PageWords) },
		"Memory.Peek":          func(m *Memory, _ *Snapshot) { m.Peek(0) },
		"Snapshot.Hash":        func(_ *Memory, s *Snapshot) { s.Hash() },
		"Snapshot.Peek":        func(_ *Memory, s *Snapshot) { s.Peek(0) },
	} {
		t.Run(name, func(t *testing.T) {
			m, s := released()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after Release did not panic", name)
				}
			}()
			read(m, s)
		})
	}
}

// TestReleaseRace is replay's sharing pattern under -race: goroutines each
// restore one snapshot, write some of its pages and release their memory,
// while the snapshot's owner releases it. Exact reference counts let the
// last writer of a page keep it in place and hand freed pages across
// goroutines through the pool; every final hash must still equal that of
// the same writes made alone.
func TestReleaseRace(t *testing.T) {
	const workers, pages = 4, 32
	write := func(m *Memory, round int) {
		for pg := Word(0); pg < pages; pg += 2 {
			m.Store(pg<<PageShift+Word(round), Word(round)+pg)
		}
	}
	for round := 0; round < 20; round++ {
		m := New()
		for pg := Word(0); pg < pages; pg++ {
			m.Store(pg<<PageShift, pg+1)
		}
		m.Hash() // sharers read cached page hashes, never write them
		snap := m.Snapshot()
		m.Release()
		want := snap.Restore()
		write(want, round)
		wantHash := want.Hash()
		want.Release()

		var restored, done sync.WaitGroup
		restored.Add(workers)
		done.Add(workers)
		hashes := make([]uint64, workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer done.Done()
				r := snap.Restore()
				restored.Done()
				write(r, round)
				hashes[w] = r.Hash()
				r.Release()
			}()
		}
		restored.Wait()
		snap.Release()
		done.Wait()
		for w, h := range hashes {
			if h != wantHash {
				t.Fatalf("round %d: worker %d hashes %016x, alone %016x", round, w, h, wantHash)
			}
		}
	}
}

// TestFreedPagesOutliveCollection frees pages, runs the collector twice and
// materialises as many pages again: the free list, which a collection does
// not empty, hands the freed pages back, so the refill allocates no page,
// and a recycled page reads as zero wherever it was not written.
func TestFreedPagesOutliveCollection(t *testing.T) {
	const pages = 64
	fill := func(off Word) *Memory {
		m := New()
		for pg := Word(0); pg < pages; pg++ {
			m.Store(pg<<PageShift+off, pg+1)
		}
		return m
	}
	fill(0).Release()
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := fill(1)
	runtime.ReadMemStats(&after)
	defer m.Release()
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(pages*PageWords*8/8); got > limit {
		t.Fatalf("refilling %d freed pages after two collections allocated %d bytes, want at most %d", pages, got, limit)
	}
	for pg := Word(0); pg < pages; pg++ {
		if got := m.Load(pg << PageShift); got != 0 {
			t.Fatalf("page %d word 0 = %d in a recycled page, want 0", pg, got)
		}
	}
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
	for i, v := range vals {
		if got := m.Load(PageWords - 2 + Word(i)); got != v {
			t.Fatalf("Load(%d) = %d, want %d", PageWords-2+i, got, v)
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

// TestPageCacheCoherence is checkPageRefs over twenty seeds, so the model
// runs in every `go test`.
func TestPageCacheCoherence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			checkPageRefs(t, 4000, rand.New(rand.NewSource(seed)).Intn)
		})
	}
}

// FuzzPageRefs is checkPageRefs with every choice read from the input, one
// byte a choice.
func FuzzPageRefs(f *testing.F) {
	// store, snapshot, clone, release the original, write the clone, release the snapshot
	f.Add([]byte{0, 0, 0, 1, 0, 3, 0, 0, 0, 0, 15, 0, 1, 2, 0, 17, 1, 0, 0, 1, 19, 0, 0, 0, 0, 1, 0, 6, 0, 0, 0, 0, 20, 0})
	// two pages, snapshot, restore, release the snapshot, then both memories write both pages
	f.Add([]byte{0, 0, 0, 0, 0, 6, 0, 0, 1, 0, 0, 6, 0, 0, 0, 0, 16, 0, 0, 0, 0, 18, 0, 0, 0, 0, 0, 20, 0,
		1, 0, 0, 0, 0, 2, 1, 0, 1, 0, 0, 3, 0, 0, 1, 0, 0, 4})
	// store, snapshot, clone, release the clone, reload it from the snapshot, write and read it
	f.Add([]byte{0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 15, 0, 0, 0, 0, 17, 0, 0, 0, 0, 19, 1, 0, 0, 0, 0, 21, 0, 0,
		1, 1, 0, 2, 0, 5, 1, 0, 0, 0, 9})
	f.Add([]byte("clone a memory, release the original, write through the clone"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPageRefs(t, min(len(data)/4, 4000), func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		})
	})
}

// checkPageRefs is a differential test of the page cache and the page
// reference counts: a family of memories and snapshots sharing pages
// copy-on-write, driven through ops steps of
// Store/Load/Peek/Snapshot/Restore/Clone, both Releases and the Reload of
// a released memory from a snapshot, each choice made by pick(n) in
// [0, n). Every page index is drawn from ten that share two cache slots
// (equal modulo its size), -1 and 0 among them, so slots are evicted and
// refilled constantly, a slot left pointing at a page its memory has
// since replaced would be read, and so would an empty slot that a real
// index matches. The model is a plain word map per holder
// plus a reference count per page identity. It predicts PagesNew and
// PagesCopied exactly — the cache may change how a page is found, never
// which pages are copied, and a write to a page every other holder has
// released happens in place — and each live page's refs must equal its
// model count, with no page mapped under two identities. Released pages
// come back from the pool as the next ones materialised or copied, so
// every survivor must still read its model after every step: a page
// recycled while still mapped, or handed out dirty, would show there.
// Every other load and store tries the inline LoadHit or StoreHit first,
// as the interpreter does, and Load or Store only on a miss: a hit is
// reported exactly when the cache slot holds the page (and for a store,
// when no other holder maps it), so a shared page is never written in
// place. A released memory's hits miss, and its Load still panics.
func checkPageRefs(t testing.TB, ops int, pick func(n int) int) {
	type holder struct {
		words map[Word]Word // model contents
		pages map[Word]int  // page index -> page identity
	}
	refs := map[int]int{}   // live page identity -> holders mapping it
	ptrs := map[int]*page{} // live page identity -> the page itself
	unref := func(id int) {
		if refs[id]--; refs[id] == 0 {
			delete(refs, id)
			delete(ptrs, id)
		}
	}
	cloneHolder := func(h *holder) *holder {
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
	dropHolder := func(h *holder) {
		for _, id := range h.pages {
			unref(id)
		}
	}
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
	var released []*Memory // waiting to be reloaded
	addr := func() Word {
		idx := Word(pick(2)) - 1 + cacheSlots*Word(pick(5)-2)
		return idx<<PageShift + Word(pick(3))
	}
	cached := func(m *Memory, a Word) bool { return m.cache[a>>PageShift&(cacheSlots-1)].idx == a>>PageShift }
	hits := false // whether this step's load or store tries the hit first
	store := func(l *live, a, v Word) {
		idx := a >> PageShift
		id, ok := l.h.pages[idx]
		want := cached(l.m, a) && ok && refs[id] == 1
		if !hits {
			l.m.Store(a, v)
		} else if hit := l.m.StoreHit(a, v); hit != want {
			t.Fatalf("StoreHit(%d) hit %v; slot holds the page %v, page private %v", a, hit, cached(l.m, a), want)
		} else if !hit {
			l.m.Store(a, v)
		}
		switch {
		case !ok && v == 0:
			return // stays sparse
		case !ok:
			l.wantNew++
		case refs[id] > 1:
			unref(id)
			l.wantCow++
		default:
			l.h.words[a] = v
			return
		}
		nextID++
		l.h.pages[idx], refs[nextID], ptrs[nextID] = nextID, 1, l.m.pages[idx]
		l.h.words[a] = v
	}
	for op := 0; op < ops; op++ {
		l := mems[pick(len(mems))]
		a := addr()
		hits = op%2 == 0
		switch r := pick(22); {
		case r < 9:
			store(l, a, Word(pick(7)-1))
		case r < 13:
			got, hit := Word(0), false
			if hits {
				if got, hit = l.m.LoadHit(a); hit != cached(l.m, a) {
					t.Fatalf("op %d: LoadHit(%d) hit %v; slot holds the page %v", op, a, hit, cached(l.m, a))
				}
			}
			if !hit {
				got = l.m.Load(a)
			}
			if got != l.h.words[a] {
				t.Fatalf("op %d: Load(%d) = %d (hit %v), model %d", op, a, got, hit, l.h.words[a])
			}
		case r < 15:
			if got := l.m.Peek(a); got != l.h.words[a] {
				t.Fatalf("op %d: Peek(%d) = %d, model %d", op, a, got, l.h.words[a])
			}
		case r < 17 && len(snaps) < 6:
			snaps = append(snaps, frozen{l.m.Snapshot(), cloneHolder(l.h)})
			// A write right behind the snapshot must copy, not leak
			// through a cached pointer to the now-shared page.
			store(l, a, Word(op))
		case r < 18 && len(mems) < 5:
			mems = append(mems, &live{m: l.m.Clone(), h: cloneHolder(l.h)})
			store(l, a, Word(-op))
		case r < 19 && len(snaps) > 0 && len(mems) < 5:
			f := snaps[pick(len(snaps))]
			mems = append(mems, &live{m: f.s.Restore(), h: cloneHolder(f.h)})
		case r < 20 && len(mems) > 1:
			k := pick(len(mems))
			dropHolder(mems[k].h)
			mems[k].m.Release()
			if _, hit := mems[k].m.LoadHit(a); hit || mems[k].m.StoreHit(a, 1) {
				t.Fatalf("op %d: a released memory's cache hit %d", op, a)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("op %d: Load(%d) of a released memory did not panic", op, a)
					}
				}()
				mems[k].m.Load(a)
			}()
			if len(released) < 3 {
				released = append(released, mems[k].m)
			}
			mems = append(mems[:k], mems[k+1:]...)
		case r == 21 && len(released) > 0 && len(snaps) > 0 && len(mems) < 5:
			// A released memory reloaded from a snapshot is that snapshot's
			// restore, in the page map it kept, with Stats from zero.
			k, f := pick(len(released)), snaps[pick(len(snaps))]
			released[k].Reload(f.s)
			mems = append(mems, &live{m: released[k], h: cloneHolder(f.h)})
			released = append(released[:k], released[k+1:]...)
		case len(snaps) > 0:
			k := pick(len(snaps))
			dropHolder(snaps[k].h)
			snaps[k].s.Release()
			snaps = append(snaps[:k], snaps[k+1:]...)
		}
		for i, l := range mems {
			if got := l.m.Peek(a); got != l.h.words[a] {
				t.Fatalf("op %d: memory %d Peek(%d) = %d, model %d", op, i, a, got, l.h.words[a])
			}
		}
		for i, f := range snaps {
			if got := f.s.Peek(a); got != f.h.words[a] {
				t.Fatalf("op %d: snapshot %d Peek(%d) = %d, model %d", op, i, a, got, f.h.words[a])
			}
		}
		owner := make(map[*page]int, len(ptrs))
		for id, n := range refs {
			p := ptrs[id]
			if got := p.refs.Load(); got != int32(n) {
				t.Fatalf("op %d: page %d has %d refs, model %d", op, id, got, n)
			}
			if other, ok := owner[p]; ok {
				t.Fatalf("op %d: pages %d and %d are one page", op, other, id)
			}
			owner[p] = id
		}
	}
	for i, l := range mems {
		want := New()
		for a, v := range l.h.words {
			if got := l.m.Load(a); got != v {
				t.Fatalf("memory %d Load(%d) = %d, model %d", i, a, got, v)
			}
			want.Store(a, v)
		}
		if st := l.m.Stats(); st.PagesNew != l.wantNew || st.PagesCopied != l.wantCow {
			t.Fatalf("memory %d materialised %d and copied %d pages, model %d and %d",
				i, st.PagesNew, st.PagesCopied, l.wantNew, l.wantCow)
		}
		if l.m.PageCount() != len(l.h.pages) {
			t.Fatalf("memory %d maps %d pages, model %d", i, l.m.PageCount(), len(l.h.pages))
		}
		if got, w := l.m.Hash(), want.Hash(); got != w {
			t.Fatalf("memory %d hashes %016x, model %016x", i, got, w)
		}
		want.Release()
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
// words' widths, one page at a time and four at a time.
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
	// A page map's hash takes stale pages four at a time and the rest one
	// by one; either way each page gets its own hash, and the map's is the
	// xor of every page's mixed with its index (an all-zero page's mixes
	// to nothing).
	for n := range 10 {
		pages := map[Word]*page{}
		var want uint64
		for k := range n {
			p := newPage()
			if k != 3 {
				p = fill(func(i int) Word { return Word(rng.Uint64() >> (8 * rng.Intn(8))) })
			}
			idx := Word(k*cacheSlots) - 5
			pages[idx] = p
			if ch := bytewiseHash(p); ch != zeroPageHash {
				want ^= mix(idx, ch)
			}
		}
		if got := hashPages(pages); got != want {
			t.Errorf("%d stale pages: hashPages %016x, xor of mixed byte-serial hashes %016x", n, got, want)
		}
		for idx, p := range pages {
			if !p.hashOK || p.hash != bytewiseHash(p) {
				t.Errorf("%d stale pages: page %d cached hash %016x (valid %v), byte-serial FNV-1a %016x", n, idx, p.hash, p.hashOK, bytewiseHash(p))
			}
		}
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

// BenchmarkEpochCycle is one epoch of a verifying execution at the page
// level: snapshot a 64-page memory, restore a private copy, write a
// quarter of its pages and release both. With released pages recycled, the
// copies cost no fresh allocation.
func BenchmarkEpochCycle(b *testing.B) {
	m := New()
	for pg := Word(0); pg < 64; pg++ {
		m.Store(pg<<PageShift, pg+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := m.Snapshot()
		r := s.Restore()
		for pg := Word(0); pg < 64; pg += 4 {
			r.Store(pg<<PageShift+1, Word(i))
		}
		s.Release()
		r.Release()
	}
}

// BenchmarkEpochCycleParallel runs BenchmarkEpochCycle's loop on every P
// at once, each on its own memory, as replay's concurrent segments and the
// daemon's concurrent jobs do: every copy takes a page from, and every
// release gives one back to, the one free list they share. Run it at -cpu
// 1,2,4 to see what the list's lock costs when it is contended.
func BenchmarkEpochCycleParallel(b *testing.B) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		m := New()
		for pg := Word(0); pg < 64; pg++ {
			m.Store(pg<<PageShift, pg+1)
		}
		defer m.Release()
		for i := Word(0); pb.Next(); i++ {
			s := m.Snapshot()
			r := s.Restore()
			for pg := Word(0); pg < 64; pg += 4 {
				r.Store(pg<<PageShift+1, i)
			}
			s.Release()
			r.Release()
		}
	})
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
