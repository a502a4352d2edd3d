//go:build race

package experiment

// raceEnabled reports whether the race detector is on. Under it the
// runtime drops sync.Pool puts at random, so allocation counts of code
// that allocates through pools are not the counts a normal build makes.
const raceEnabled = true
