//go:build !race

package epoch_test

const raceEnabled = false
