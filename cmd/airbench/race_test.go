//go:build race

package main

// raceEnabled: the race detector's instrumentation allocates and slows
// every operation, so the golden test holds only checksums under it.
const raceEnabled = true
