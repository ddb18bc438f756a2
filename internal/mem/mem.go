// Package mem implements the paged, copy-on-write guest memory that backs
// every execution in the DoublePlay simulator.
//
// Memory is word-addressed (one 64-bit word per address) and sparsely paged:
// a page that has never been written reads as zero and occupies no storage.
// Snapshots are O(pages) reference bumps; the first write to a shared page
// after a snapshot copies that page (copy-on-write). This mirrors the
// fork-based checkpointing the original DoublePlay kernel used: taking a
// checkpoint is cheap, and the cost of a checkpoint is paid lazily by
// whichever execution writes first.
//
// Per-page content hashes are cached so that comparing two memory images —
// the divergence check DoublePlay performs at every epoch boundary — costs
// O(pages written since the hash was last computed), not O(address space).
//
// Ownership: every Memory and every Snapshot holds one reference on each
// page it maps, and whoever makes one — New, Restore, Clone, Snapshot —
// owns it until it calls Release, which drops those references. A page
// whose last reference goes is recycled for the next page any memory
// materialises or copies, the way a forked checkpoint's pages go back to
// the kernel when it exits. A function that returns a memory (or a machine
// built on one) hands it to its caller; one that drops a memory it made
// releases it. Forgetting to release costs only the reuse — the garbage
// collector still reclaims the page — but using a memory or snapshot after
// releasing it panics rather than read words another execution owns.
// Reload makes a released memory a restore of a snapshot again, in the
// page map it had, and its owner owns it anew.
package mem

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// PageShift determines the page size: 1<<PageShift words per page.
const PageShift = 10

// PageWords is the number of 64-bit words in one page.
const PageWords = 1 << PageShift

// pageMask extracts the in-page offset from an address.
const pageMask = PageWords - 1

// Word is the unit of guest memory and guest arithmetic.
type Word = int64

// page is a refcounted block of guest words. A page with refs > 1 is shared
// between memories/snapshots and must be copied before being written.
type page struct {
	refs   atomic.Int32
	data   [PageWords]Word
	hash   uint64 // cached content hash; valid iff hashOK
	hashOK bool
}

// Pages no memory or snapshot maps any more go to freePages, up to
// freePagesCap of them, and past that to the garbage collector. Whoever
// drops a page's last reference owns it and puts it back. A collection
// does not empty the list, so a recording that frees and refills pages
// epoch after epoch reuses them whenever the collector runs (DESIGN.md,
// key decision 24).
var freePages struct {
	sync.Mutex
	pages []*page
}

// freePagesCap bounds the free list at 8 MiB of pages.
const freePagesCap = 1024

// getPage returns a recycled or new page whose contents are stale.
func getPage() *page {
	freePages.Lock()
	defer freePages.Unlock()
	n := len(freePages.pages)
	if n == 0 {
		return new(page)
	}
	p := freePages.pages[n-1]
	freePages.pages[n-1] = nil
	freePages.pages = freePages.pages[:n-1]
	return p
}

// putPage recycles a page no one maps, or leaves it to the collector when
// the list is full.
func putPage(p *page) {
	freePages.Lock()
	defer freePages.Unlock()
	if len(freePages.pages) < freePagesCap {
		freePages.pages = append(freePages.pages, p)
	}
}

// newPage returns an all-zero page with refs == 1.
func newPage() *page {
	p := getPage()
	p.data = [PageWords]Word{}
	p.hash, p.hashOK = 0, false
	p.refs.Store(1)
	return p
}

// clone returns a private copy of p with refs == 1.
func (p *page) clone() *page {
	c := getPage()
	c.data, c.hash, c.hashOK = p.data, p.hash, p.hashOK
	c.refs.Store(1)
	return c
}

// unref drops one reference to p, recycling it if that was the last.
func (p *page) unref() {
	if p.refs.Add(-1) == 0 {
		putPage(p)
	}
}

// unrefAll drops one reference to every page in pages.
func unrefAll(pages map[Word]*page) {
	for _, p := range pages {
		p.unref()
	}
}

const fnvBasis, fnvPrime = 14695981039346656037, 1099511628211 // FNV-1a, 64 bits

// fnvPow[k] is fnvPrime to the power k: what k zero bytes in a row do to an
// FNV-1a hash, since xoring in a zero leaves only the multiply.
var fnvPow = func() (pow [9]uint64) {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * fnvPrime
	}
	return pow
}()

// fold returns FNV-1a hash h continued over w's eight bytes in
// little-endian order. Guest words are mostly small, so the zero high bytes
// are folded into one multiply.
func fold(h uint64, w Word) uint64 {
	x := uint64(w)
	n := 8 - bits.LeadingZeros64(x)>>3 // bytes up to the highest non-zero one
	for i := 0; i < n; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h * fnvPow[8-n]
}

// contentHash returns the FNV-1a hash of the page body, caching the result.
// Only the owner of a writable memory calls this, so the cache fields need
// no synchronisation beyond the sharing discipline (shared pages are
// immutable, and their cached hash was computed before they became shared or
// is recomputed identically by each sharer).
func (p *page) contentHash() uint64 {
	if !p.hashOK {
		h := uint64(fnvBasis)
		for _, w := range p.data {
			h = fold(h, w)
		}
		p.hash, p.hashOK = h, true
	}
	return p.hash
}

// contentHash4 is contentHash of four pages at once, as four independent
// chains in one loop, so their multiplies overlap instead of queueing.
func contentHash4(g *[4]*page) {
	h0, h1, h2, h3 := uint64(fnvBasis), uint64(fnvBasis), uint64(fnvBasis), uint64(fnvBasis)
	d0, d1, d2, d3 := &g[0].data, &g[1].data, &g[2].data, &g[3].data
	for i := range d0 {
		h0, h1, h2, h3 = fold(h0, d0[i]), fold(h1, d1[i]), fold(h2, d2[i]), fold(h3, d3[i])
	}
	for k, h := range [4]uint64{h0, h1, h2, h3} {
		g[k].hash, g[k].hashOK = h, true
	}
}

// hashPages returns the order-independent content hash of a page map.
// Pages whose hash is not cached are hashed four at a time.
func hashPages(pages map[Word]*page) (h uint64) {
	var idxs [4]Word
	var group [4]*page
	n := 0
	for idx, p := range pages {
		if p.hashOK {
			h ^= mix(idx, p.hash)
			continue
		}
		idxs[n], group[n] = idx, p
		if n++; n < len(group) {
			continue
		}
		contentHash4(&group)
		for k, q := range group {
			h ^= mix(idxs[k], q.hash)
		}
		n = 0
	}
	for k, q := range group[:n] {
		h ^= mix(idxs[k], q.contentHash())
	}
	return h
}

// zeroPageHash is the content hash of an all-zero page, used to canonicalise
// hashes so that an explicitly-zeroed page and a never-touched page produce
// identical memory hashes.
var zeroPageHash = func() uint64 {
	return newPage().contentHash()
}()

// Stats counts copy-on-write activity, which the cost model charges as
// checkpoint overhead.
type Stats struct {
	PagesCopied int64 // pages duplicated by copy-on-write
	PagesNew    int64 // pages materialised by a first write
}

// Memory is a writable guest address space.
//
// A Memory is not safe for concurrent mutation; each simulated execution owns
// exactly one. Distinct Memory values may share pages through snapshots, and
// the copy-on-write protocol makes concurrent use of *different* memories
// that share pages safe (shared pages are read-only by construction).
type Memory struct {
	pages map[Word]*page // nil once released
	stats Stats

	// spare is the page map Release emptied, kept for the next Reload.
	spare map[Word]*page

	// cache is a direct-mapped table of recently touched pages, slotted by
	// the low bits of the page index: each guest thread's access stream is
	// page-local, and with one slot per stream most Load/Store calls skip
	// the map lookup even when several threads interleave. A filled slot
	// always equals m.pages[slot.idx] — writablePage, the one place a
	// mapping is created or replaced, refreshes the slot as it does so. An
	// empty slot holds noPage, so a hit is the one compare s.idx == idx.
	cache [cacheSlots]cacheSlot
}

// cacheSlots is the size of the page cache; a power of two.
const cacheSlots = 64

// noPage is the index an empty cache slot holds: no 64-bit address shifted
// right by PageShift reaches it.
const noPage = math.MinInt64

// cacheSlot caches one m.pages entry, or holds idx == noPage.
type cacheSlot struct {
	idx  Word
	page *page
}

// emptyCache is a page cache whose every slot is empty.
var emptyCache = func() (c [cacheSlots]cacheSlot) {
	for i := range c {
		c[i].idx = noPage
	}
	return c
}()

// slot returns the cache slot page index idx maps to, and the page mapped
// at idx if that is what the slot holds (else nil).
func (m *Memory) slot(idx Word) (*cacheSlot, *page) {
	s := &m.cache[idx&(cacheSlots-1)]
	if s.idx == idx {
		return s, s.page
	}
	return s, nil
}

// LoadHit returns the word at addr if the page cache holds its page, and
// false otherwise, when Load must serve it. It is small enough to inline
// into the interpreter's loops, which call Load only on a miss.
func (m *Memory) LoadHit(addr Word) (Word, bool) {
	s := &m.cache[addr>>PageShift&(cacheSlots-1)]
	if s.idx != addr>>PageShift {
		return 0, false
	}
	return s.page.data[addr&pageMask], true
}

// StoreHit is Store if the page cache holds addr's page and nothing shares
// it; otherwise it does nothing and reports false, and Store must write.
// Sharing is read from the page on every call: a Snapshot or Clone shares
// a cached page without touching the cache.
func (m *Memory) StoreHit(addr, val Word) bool {
	s := &m.cache[addr>>PageShift&(cacheSlots-1)]
	if s.idx != addr>>PageShift || s.page.refs.Load() != 1 {
		return false
	}
	if w := &s.page.data[addr&pageMask]; *w != val {
		*w, s.page.hashOK = val, false
	}
	return true
}

// New returns an empty memory in which every address reads zero.
func New() *Memory {
	return &Memory{pages: make(map[Word]*page), cache: emptyCache}
}

// Load returns the word at addr.
func (m *Memory) Load(addr Word) Word {
	idx := addr >> PageShift
	s, p := m.slot(idx)
	if p == nil {
		var ok bool
		if p, ok = m.pages[idx]; !ok {
			m.checkLive()
			return 0
		}
		s.idx, s.page = idx, p
	}
	return p.data[addr&pageMask]
}

// Peek returns the word at addr without going through (or refilling) the
// page cache; used by inspection and comparison code paths.
func (m *Memory) Peek(addr Word) Word {
	p, ok := m.pages[addr>>PageShift]
	if !ok {
		m.checkLive()
		return 0
	}
	return p.data[addr&pageMask]
}

// checkLive panics if m has been released. Release empties the page
// cache, so a read of a released memory always misses the cache and
// reaches this check.
func (m *Memory) checkLive() {
	if m.pages == nil {
		panic("mem: read of released memory")
	}
}

// writablePage returns the page containing addr, materialising or privatising
// it as needed so the caller may write to it.
func (m *Memory) writablePage(idx Word) *page {
	s, p := m.slot(idx)
	if p == nil {
		var ok bool
		p, ok = m.pages[idx]
		if !ok {
			p = newPage()
			m.pages[idx] = p
			m.stats.PagesNew++
		}
	}
	if p.refs.Load() > 1 {
		c := p.clone()
		p.unref() // the last one if every other holder let go meanwhile
		m.pages[idx] = c
		m.stats.PagesCopied++
		p = c
	}
	s.idx, s.page = idx, p
	return p
}

// Store writes val at addr, copying the containing page first if it is
// shared with a snapshot. Writing zero to an unmaterialised page is a no-op,
// so zero-filled data segments stay sparse.
func (m *Memory) Store(addr Word, val Word) {
	idx := addr >> PageShift
	_, p := m.slot(idx)
	if p == nil || p.refs.Load() > 1 {
		if p == nil && val == 0 {
			if _, ok := m.pages[idx]; !ok {
				return
			}
		}
		p = m.writablePage(idx)
	}
	off := addr & pageMask
	if p.data[off] == val {
		return
	}
	p.data[off] = val
	p.hashOK = false
}

// StoreRange writes vals at consecutive addresses starting at addr, a page
// at a time, with exactly the effect of Store on each word in turn: zeros
// into an unmaterialised page are no-ops, so the page appears at the first
// non-zero word; a shared page is copied before the first word written to
// it, even an equal one; a page's cached hash is dropped only when one of
// its words changes.
func (m *Memory) StoreRange(addr Word, vals []Word) {
	for len(vals) > 0 {
		idx, off := addr>>PageShift, int(addr&pageMask)
		run := vals[:min(len(vals), PageWords-off)]
		addr, vals = addr+Word(len(run)), vals[len(run):]
		if _, p := m.slot(idx); p == nil {
			if _, ok := m.pages[idx]; !ok && !slices.ContainsFunc(run, nonZero) {
				continue
			}
		}
		p := m.writablePage(idx)
		if dst := p.data[off : off+len(run)]; !slices.Equal(dst, run) {
			copy(dst, run)
			p.hashOK = false
		}
	}
}

func nonZero(w Word) bool { return w != 0 }

// Stats returns the accumulated copy-on-write counters.
func (m *Memory) Stats() Stats { return m.stats }

// ResetStats zeroes the counters; the cost model does this at epoch
// boundaries to charge copy-on-write traffic to the correct epoch.
func (m *Memory) ResetStats() { m.stats = Stats{} }

// PageCount reports the number of materialised pages.
func (m *Memory) PageCount() int { return len(m.pages) }

// Hash returns an order-independent hash of the full memory image.
// Semantically equal memories (same value at every address) hash equally
// regardless of paging history: all-zero pages contribute nothing.
func (m *Memory) Hash() uint64 { return hashPages(m.pages) }

// mix combines a page index with its content hash into a single word with
// good avalanche behaviour, so that xor-combining across pages is safe. An
// all-zero page mixes to zero: it contributes nothing.
func mix(idx Word, content uint64) uint64 {
	if content == zeroPageHash {
		return 0
	}
	x := uint64(idx)*0x9e3779b97f4a7c15 ^ content
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Snapshot freezes the current contents. The snapshot shares pages with m;
// subsequent writes to m copy pages lazily and never disturb the snapshot.
func (m *Memory) Snapshot() *Snapshot {
	pages := make(map[Word]*page, len(m.pages))
	for idx, p := range m.pages {
		p.refs.Add(1)
		pages[idx] = p
	}
	return &Snapshot{pages: pages}
}

// Clone returns an independent writable memory with the same contents,
// sharing pages copy-on-write with m.
func (m *Memory) Clone() *Memory {
	// The snapshot's page references become the clone's.
	return &Memory{pages: m.Snapshot().pages, cache: emptyCache}
}

// Release drops m's reference on every page it maps, recycling the pages
// no one else holds. Reading m afterwards panics until a Reload; releasing
// it again does nothing. The emptied page map is kept for that Reload.
func (m *Memory) Release() {
	if m.pages == nil {
		return
	}
	unrefAll(m.pages)
	clear(m.pages)
	m.pages, m.spare = nil, m.pages
	m.cache = emptyCache
}

// Reload makes m, which must be released, a restore of s: its contents
// equal the snapshot's, pages are shared copy-on-write and Stats start
// from zero. It fills the page map Release emptied, so reloading a memory
// that last held about as many pages allocates nothing.
// Snapshot.Restore is Reload of a new memory.
func (m *Memory) Reload(s *Snapshot) {
	s.checkLive("Restore")
	if m.pages != nil {
		panic("mem: Reload of unreleased memory")
	}
	pages := m.spare
	if pages == nil {
		pages = make(map[Word]*page, len(s.pages))
	}
	for idx, p := range s.pages {
		p.refs.Add(1)
		pages[idx] = p
	}
	m.pages, m.spare = pages, nil
	m.stats = Stats{}
	m.cache = emptyCache
}

// DiffPages returns the indices of pages whose content differs between m and
// other, including pages present in only one of them (unless all-zero).
// Used by divergence diagnostics to report *where* two executions differ.
func (m *Memory) DiffPages(other *Memory) []Word {
	var out []Word
	seen := make(map[Word]bool)
	for idx, p := range m.pages {
		seen[idx] = true
		q, ok := other.pages[idx]
		if ok {
			if p == q || p.contentHash() == q.contentHash() {
				continue
			}
			out = append(out, idx)
			continue
		}
		if p.contentHash() != zeroPageHash {
			out = append(out, idx)
		}
	}
	for idx, q := range other.pages {
		if seen[idx] {
			continue
		}
		if q.contentHash() != zeroPageHash {
			out = append(out, idx)
		}
	}
	return out
}

// Snapshot is an immutable memory image. It can be rehydrated into a
// writable Memory in O(pages) without copying page bodies.
type Snapshot struct {
	pages map[Word]*page // nil once released
}

// checkLive panics if s has been released, naming the accessor.
func (s *Snapshot) checkLive(op string) {
	if s.pages == nil {
		panic("mem: " + op + " on released snapshot")
	}
}

// Restore returns a writable memory whose initial contents equal the
// snapshot. Pages are shared copy-on-write.
func (s *Snapshot) Restore() *Memory {
	m := new(Memory) // released: it maps nothing yet
	m.Reload(s)
	return m
}

// Hash returns the order-independent content hash of the snapshot.
func (s *Snapshot) Hash() uint64 {
	s.checkLive("Hash")
	return hashPages(s.pages)
}

// Peek reads a word from the snapshot.
func (s *Snapshot) Peek(addr Word) Word {
	s.checkLive("Peek")
	p, ok := s.pages[addr>>PageShift]
	if !ok {
		return 0
	}
	return p.data[addr&pageMask]
}

// Release drops the snapshot's page references so future writes by sharers
// need not copy, recycling the pages no one else holds. Using the snapshot
// after Release panics; releasing it again does nothing.
func (s *Snapshot) Release() {
	unrefAll(s.pages)
	s.pages = nil
}

// String summarises the snapshot for debugging.
func (s *Snapshot) String() string {
	if s.pages == nil {
		return "Snapshot(released)"
	}
	return fmt.Sprintf("Snapshot(%d pages, hash=%016x)", len(s.pages), s.Hash())
}
