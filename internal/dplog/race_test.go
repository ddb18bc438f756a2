//go:build race

package dplog

// raceEnabled is true under the race detector, where sync.Pool drops a
// share of what it is given on purpose: allocation guards skip.
const raceEnabled = true
