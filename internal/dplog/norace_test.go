//go:build !race

package dplog

const raceEnabled = false
