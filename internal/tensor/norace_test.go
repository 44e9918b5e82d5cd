//go:build !race

package tensor

const raceEnabled = false
