//go:build race

package main

// raceEnabled relaxes the smoke test's time limit: the race detector slows
// the load loops several times over.
const raceEnabled = true
