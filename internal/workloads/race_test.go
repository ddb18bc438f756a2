//go:build race

package workloads

// raceEnabled is true under the race detector, whose instrumentation
// allocates on its own: allocation guards skip.
const raceEnabled = true
