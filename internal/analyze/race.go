package analyze

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"doubleplay/internal/vm"
)

// site is one statically-resolvable data memory access observed during
// the interprocedural scan. Sites whose address cannot be pinned to a
// known word (exact) or a known array base (region) are not recorded:
// with no static name there is nothing to pair, and in this ISA such
// addresses come from SysAlloc results or loaded pointers that the
// dynamic detector must own anyway.
type site struct {
	fn    int
	pc    int
	write bool
	exact bool    // exact single word vs. region [addr, dataEnd)
	addr  vm.Word // exact address or region base

	key   string      // identity among the recorded sites
	class threadClass // thread class executing the access
	multi bool        // class can have >= 2 concurrently live instances
	conc  bool        // may overlap another thread (pre-spawn/post-join excluded)
	ctxs  []string    // keys of the contexts that recorded this site
	locks []vm.Word
	// Known constant stored value, for the benign same-value-store
	// suppression (concurrent stores of the same constant cannot change
	// the final state whichever order they land in).
	valKnown bool
	val      vm.Word
}

func (s *site) where(a *analysis) string {
	kind := "read"
	if s.write {
		kind = "write"
	}
	loc := fmt.Sprintf("[%d]", s.addr)
	if !s.exact {
		loc = fmt.Sprintf("[%d+i]", s.addr)
	}
	return fmt.Sprintf("%s %s at %s@%d (%s, locks {%s})", kind, loc, a.fname(s.fn), s.pc, a.className(s.class), lockset{must: s.locks})
}

// recordSite classifies a Ld/St/Ldx/Stx address and records it when it
// has a static name. base+off both constant -> exact word; constant base
// with unknown index -> region; a TidLike index into a constant base is a
// per-thread slot and deliberately not recorded (each thread owns its
// cell by construction, as in the tally arrays of the signal workloads).
func (a *analysis) recordSite(c *context, st *absState, pc int, base, idx aval, write bool, val aval) {
	conc := a.concAt(c, st)
	var s site
	switch {
	case base.k == vConst && idx.k == vConst:
		s = site{exact: true, addr: base.c + idx.c}
	case base.k == vConst && idx.k == vTid:
		return // per-thread slot
	case base.k == vConst:
		s = site{exact: false, addr: base.c}
	default:
		// Dynamically allocated or loaded pointer: nothing to pair, so no
		// site — but while other threads are live the access could touch
		// any word, which the screen cannot rule a race, so a certificate
		// cannot call the program race-free.
		if conc {
			a.unsound(c.fn, pc, "concurrent access through an address the constant dataflow cannot bound")
		}
		return
	}
	// Regions inside barrier-synchronized functions are index-partitioned
	// phase arrays in this suite; the barrier orders the phases, and the
	// per-index disjointness that makes the sharing safe is beyond a
	// lockset analysis. Documented under-approximation (see DESIGN.md) —
	// fine for a screen, but a certificate must degrade on it.
	if !s.exact && a.hasBarrier[c.fn] {
		if conc {
			a.unsound(c.fn, pc, "concurrent region access skipped under the barrier-partitioning assumption")
		}
		return
	}
	s.fn, s.pc, s.write = c.fn, pc, write
	s.class = c.class
	s.conc = conc
	if !s.conc {
		return
	}
	s.locks = st.lk.must
	switch c.class.kind {
	case mainThread:
		s.multi = false
	case spawned:
		// A helper inherits its caller's class, so multi comes from the
		// spawned root.
		s.multi = a.spawnMulti[c.class.root]
	default: // signal handlers: every live thread can run one
		s.multi = true
	}
	if write && val.k == vConst {
		s.valKnown, s.val = true, val.c
	}
	key := fmt.Sprintf("site|%d|%v|%t|%v|%v|%t|%d", pc, s.class, s.exact, s.addr, s.locks, s.valKnown, s.val)
	if prev := a.siteByKey[key]; prev != nil {
		// Recorded again from another context (each context replays a pc
		// at most once): remember it for the coexisting-instance count.
		prev.ctxs = append(prev.ctxs, c.key())
		return
	}
	s.key, s.ctxs = key, []string{c.key()}
	a.siteByKey[key] = &s
	a.sites = append(a.sites, &s)
}

// coInstances counts the thread instances that can be live at once across
// the contexts that recorded x and y, saturating at 2. Two same-class
// sites race only when that count reaches 2: a context specialized on a
// constant spawn argument (a per-worker address, say) has exactly one
// instance, so a site it alone recorded cannot overlap itself.
func (a *analysis) coInstances(x, y *site) int {
	n := 0
	seen := map[string]bool{}
	for _, keys := range [2][]string{x.ctxs, y.ctxs} {
		for _, k := range keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			n += max(a.ctxInst[k], 1)
			if n >= 2 {
				return 2
			}
		}
	}
	return n
}

// raceable reports whether two sites can execute on distinct threads.
func raceable(x, y *site) bool {
	if x.class != y.class {
		return true
	}
	return x.multi
}

// overlap reports whether two sites can touch the same word. Regions
// extend to the end of the static data segment; two different region
// bases are distinct arrays laid out contiguously, so region/region
// pairs only collide when rooted at the same base, while an exact word
// at or after a region's base may be any element of it.
func (a *analysis) overlap(x, y *site) bool {
	switch {
	case x.exact && y.exact:
		return x.addr == y.addr
	case x.exact != y.exact:
		ex, rg := x, y
		if !ex.exact {
			ex, rg = y, x
		}
		end := a.dataEnd
		if rg.addr >= end {
			end = rg.addr + 1
		}
		return ex.addr >= rg.addr && ex.addr < end
	default:
		return x.addr == y.addr
	}
}

// screenRaces pairs the recorded sites: two concurrent accesses to
// overlapping locations, at least one a write, from threads that can
// actually coexist, with no common must-held lock, form a race
// candidate. Candidates are grouped per location.
func (a *analysis) screenRaces() {
	type group struct {
		exact bool
		addr  vm.Word
		sites map[*site]bool
	}
	groups := map[string]*group{}
	for i, x := range a.sites {
		for j := i; j < len(a.sites); j++ {
			y := a.sites[j]
			if i == j && !(x.write && x.multi) {
				continue // a site races itself only across instances of its class
			}
			if !x.write && !y.write {
				continue
			}
			if !raceable(x, y) || !a.overlap(x, y) {
				continue
			}
			if x.class == y.class && a.coInstances(x, y) < 2 {
				continue // every recording context folds to one live instance
			}
			if x.write && y.write && x.valKnown && y.valKnown && x.val == y.val {
				continue // same-constant stores are order-insensitive
			}
			if len(intersectWords(x.locks, y.locks)) > 0 {
				continue // consistently protected
			}
			// Group under the narrower location name.
			g := x
			if !g.exact && y.exact {
				g = y
			}
			key := fmt.Sprintf("%t|%d", g.exact, g.addr)
			grp := groups[key]
			if grp == nil {
				grp = &group{exact: g.exact, addr: g.addr, sites: map[*site]bool{}}
				groups[key] = grp
			}
			grp.sites[x] = true
			grp.sites[y] = true
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		members := make([]*site, 0, len(g.sites))
		for s := range g.sites {
			members = append(members, s)
		}
		slices.SortFunc(members, func(x, y *site) int {
			return cmp.Or(cmp.Compare(x.pc, y.pc), strings.Compare(a.className(x.class), a.className(y.class)), strings.Compare(x.key, y.key))
		})
		size := vm.Word(1)
		loc := fmt.Sprintf("word %d", g.addr)
		if !g.exact {
			end := a.dataEnd
			if g.addr >= end {
				end = g.addr + 1
			}
			size = end - g.addr
			loc = fmt.Sprintf("words [%d, %d)", g.addr, end)
		}
		msg := fmt.Sprintf("race candidate on %s: ", loc)
		for i, s := range members {
			if i > 0 {
				msg += "; "
			}
			msg += s.where(a)
			if i == 3 && len(members) > 4 {
				msg += fmt.Sprintf("; +%d more sites", len(members)-4)
				break
			}
		}
		f := Finding{
			Kind: raceCandidate, Sev: sevWarning,
			Func: a.fname(members[0].fn), PC: members[0].pc,
			Addr: g.addr, Size: size, Msg: msg,
		}
		a.fs.add(f)
		for _, s := range members {
			a.racyFns[s.fn] = true
		}
	}
}
