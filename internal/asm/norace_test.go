//go:build !race

package asm_test

const raceEnabled = false
