package analyze

import (
	"fmt"
	"sort"
)

// CertStatus classifies a program (or one function) for the recorder's
// skip-verification policy.
type CertStatus string

const (
	// CertRaceFree: the analysis completed with no unsoundness source and
	// found no race candidate. Every shared access is protected, per-thread,
	// atomic, or provably non-concurrent, so any sync-order-respecting
	// execution of the program reaches the same state — the property that
	// lets core.Record commit epochs without the verification pass.
	CertRaceFree CertStatus = "race-free"
	// CertPossiblyRacy: the screen reported at least one race candidate.
	// The program may diverge; recording must verify every epoch.
	CertPossiblyRacy CertStatus = "possibly-racy"
	// CertIncomplete: the analysis could not cover the program — indirect
	// addressing it cannot bound, syscalls issued while threads overlap,
	// barrier-partitioned sharing, context or instruction budget
	// exhaustion, or error findings. Absence of candidates proves nothing
	// here, so recording must verify every epoch.
	CertIncomplete CertStatus = "incomplete"
)

// FuncCert is one function's classification within a certificate.
type FuncCert struct {
	Func   string     `json:"func"`
	Status CertStatus `json:"status"`
	Reason string     `json:"reason,omitempty"`
}

// Certificate is the soundness verdict [Run] derives from an analysis: a
// program-level classification plus per-function detail. Only a race-free
// status is load-bearing — it asserts that the epoch-parallel verification
// pass cannot disagree with the thread-parallel run, so the recorder may
// skip it (core.VerifyCertified). The other two statuses merely say why
// that proof is unavailable.
type Certificate struct {
	Program    string     `json:"program"`
	Status     CertStatus `json:"status"`
	Reasons    []string   `json:"reasons,omitempty"`
	Candidates int        `json:"candidates"`
	Funcs      []FuncCert `json:"funcs,omitempty"`

	// Steps counts the abstract instructions the interprocedural scan
	// interpreted; Budget is the cap it ran under (see runBudget).
	Steps  int `json:"steps"`
	Budget int `json:"budget"`
}

// RaceFree reports whether this certificate licenses skipping epoch
// verification.
func (c *Certificate) RaceFree() bool {
	return c != nil && c.Status == CertRaceFree
}

// String renders a one-line account.
func (c *Certificate) String() string {
	if c == nil {
		return "certificate(nil)"
	}
	extra := ""
	if len(c.Reasons) > 0 {
		extra = ": " + c.Reasons[0]
		if len(c.Reasons) > 1 {
			extra += fmt.Sprintf(" (+%d more)", len(c.Reasons)-1)
		}
	}
	return fmt.Sprintf("%s: %s (%d candidates, %d/%d steps)%s",
		c.Program, c.Status, c.Candidates, c.Steps, c.Budget, extra)
}

// unsound records one source of analysis incompleteness: an access or
// effect the screen cannot cover. Each site is reported once as an
// Incomplete finding, and the owning function (and the whole program)
// degrade to CertIncomplete.
func (a *analysis) unsound(fn, pc int, why string) {
	a.incompleteFns[fn] = true
	a.report(fmt.Sprintf("inc|%d|%d", fn, pc), Finding{
		Kind: incomplete, Sev: SevInfo, Func: a.fname(fn), PC: pc,
		Msg: why,
	})
}

// certificate derives the program's verdict after every pass has run.
func (a *analysis) certificate() *Certificate {
	c := &Certificate{
		Program:    a.prog.Name,
		Candidates: len(a.fs.Races()),
		Steps:      a.steps,
		Budget:     a.budget,
	}

	reasons := map[string]bool{}
	addReason := func(s string) { reasons[s] = true }

	if a.fs.Errors() > 0 {
		addReason(fmt.Sprintf("%d error finding(s); execution may fault before any proof applies", a.fs.Errors()))
	}
	if a.budgetHit {
		addReason(fmt.Sprintf("instruction budget exhausted after %d abstract steps; coverage is partial", a.steps))
	}
	for _, f := range a.fs.ByKind(incomplete) {
		addReason(f.Msg)
	}

	incomplete := len(reasons) > 0
	for fn := range a.prog.Funcs {
		fc := FuncCert{Func: a.fname(fn)}
		switch {
		case a.racyFns[fn]:
			fc.Status = CertPossiblyRacy
			fc.Reason = "race candidate involves an access in this function"
		case a.budgetHit:
			fc.Status = CertIncomplete
			fc.Reason = "instruction budget exhausted before coverage completed"
		case a.incompleteFns[fn]:
			fc.Status = CertIncomplete
			fc.Reason = "contains accesses or effects the screen cannot bound"
		case a.capped[fn]:
			fc.Status = CertIncomplete
			fc.Reason = "context budget exhausted; some call sites analyzed imprecisely"
		case a.valveTripped[fn]:
			fc.Status = CertIncomplete
			fc.Reason = "dataflow fixpoint did not converge within bounds"
		case !a.analyzed[fn] && fn != a.prog.Entry:
			fc.Status = CertRaceFree
			fc.Reason = "never called, spawned, or installed; no execution reaches it"
		default:
			fc.Status = CertRaceFree
		}
		if fc.Status == CertIncomplete {
			incomplete = true
		}
		c.Funcs = append(c.Funcs, fc)
	}
	// Context-budget exhaustion already surfaces as Incomplete findings
	// (folded in above); the fixpoint valve has no finding of its own.
	for fn, tripped := range a.valveTripped {
		if tripped {
			addReason(fmt.Sprintf("dataflow fixpoint for %q did not converge within bounds", a.fname(fn)))
		}
	}

	switch {
	case c.Candidates > 0:
		c.Status = CertPossiblyRacy
		addReason(fmt.Sprintf("%d race candidate(s) reported by the lockset screen", c.Candidates))
	case incomplete || len(reasons) > 0:
		c.Status = CertIncomplete
	default:
		c.Status = CertRaceFree
	}

	c.Reasons = make([]string, 0, len(reasons))
	for r := range reasons {
		c.Reasons = append(c.Reasons, r)
	}
	sort.Strings(c.Reasons)
	return c
}
