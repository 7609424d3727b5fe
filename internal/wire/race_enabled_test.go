//go:build race

package wire

// raceEnabled reports whether the race detector is instrumenting this test
// binary. Throughput assertions are skipped under it: instrumentation slows
// the lock and condvar traffic of a deep credit window far more than that of
// a one-frame window, inverting ratios that hold on uninstrumented builds.
const raceEnabled = true
