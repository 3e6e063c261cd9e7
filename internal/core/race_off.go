//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in; see
// race_on.go for why it sets the seqlock attempt budget to 0.
const raceEnabled = false
