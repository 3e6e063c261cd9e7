//go:build race

package core

// raceEnabled reports whether the race detector is compiled in.
//
// Under -race the seqlock attempt budget is 0 (PMA.attempts, set in
// newShell) and every Get and Scan makes its one read under the shared
// latch: the same lookup and chunk copy (cgate.go), made consistent by the
// latch instead of the version. The seqlock attempts' unsynchronised chunk
// loads are real data races by the memory model — benign only because
// validation discards their results — and the detector has no userland
// mechanism to exempt individual loads (runtime.RaceDisable suppresses
// synchronization events, not access recording). Race builds therefore
// verify the read primitives under the latch and every writer-side
// interleaving, while the seqlock protocol itself is verified by the
// model-checking stress suite in normal builds (stress_test.go; CI runs the
// package both ways). Normal builds get the latched reads too: the stress
// suite's latched-fallback subtests set the budget to 0 after New.
const raceEnabled = true
