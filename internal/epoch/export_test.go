package epoch

// The injectors and the gate, for the external tests that drive one
// without an Exec.
var (
	NewGate          = newGate
	NewInjectOS      = newInjectOS
	NewInjectSignals = newInjectSignals
)
