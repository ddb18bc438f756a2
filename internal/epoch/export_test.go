package epoch

import "doubleplay/internal/dplog"

// The injectors and the gate, for the external tests that drive one
// without an Exec.
var (
	NewInjectOS      = newInjectOS
	NewInjectSignals = newInjectSignals
)

// Gate is the gate's type, for the tests that hold a fresh gate and a
// reset one to the same table.
type Gate = gate

// Reset points a used gate at another epoch's sync order, as a slot does.
func (g *gate) Reset(order []dplog.SyncRecord) { g.reset(order) }

// GateErr returns the order violation the slot's gate saw in its last
// run, which only DisableEnforcement lets happen.
func (s *Slot) GateErr() string { return s.gate.Err() }

// NewGate builds a gate from an epoch's recorded sync order, as Follow does.
func NewGate(order []dplog.SyncRecord) *gate {
	g := new(gate)
	g.reset(order)
	return g
}
