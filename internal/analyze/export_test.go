package analyze

// The finding kinds, severities and budget the external tests assert on.
const (
	InvalidProgram = invalidProgram
	BadCallee      = badCallee
	FallOffEnd     = fallOffEnd
	RecursiveLock  = recursiveLock
	UnbalancedLock = unbalancedLock
	LockAtExit     = lockAtExit
	DeadStore      = deadStore
	DeadBlock      = deadBlock
	RaceCandidate  = raceCandidate
	Incomplete     = incomplete

	SevWarning = sevWarning
	SevError   = sevError

	DefaultBudget = defaultBudget
)

// RunBudget exposes runBudget to TestCertBudgetPath.
var RunBudget = runBudget
