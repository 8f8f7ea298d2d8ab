//go:build race

package ptree

// raceEnabled reports whether the race detector is instrumenting this build;
// it makes sync.Pool drop objects at random, so allocation pins skip.
const raceEnabled = true
