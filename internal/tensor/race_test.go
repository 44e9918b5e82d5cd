//go:build race

package tensor

// raceEnabled reports a race-detector build, under which sync.Pool drops a
// share of its Puts at random.
const raceEnabled = true
