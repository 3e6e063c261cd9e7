//go:build race

package client

// raceEnabled skips the pool-backed allocation guard: under the race
// detector sync.Pool drops a share of what it is handed, by design.
const raceEnabled = true
