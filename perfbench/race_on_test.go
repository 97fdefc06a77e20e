//go:build race

package main

// raceEnabled reports a race-detector build, whose instrumentation
// distorts the timings the slowdown drill compares.
const raceEnabled = true
