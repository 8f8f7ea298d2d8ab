//go:build !race

package ptree

const raceEnabled = false
