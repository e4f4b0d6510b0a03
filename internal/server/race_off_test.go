//go:build !race

package server

// raceEnabled reports whether the test binary was built with -race, whose
// shadow memory and instrumentation make heap measurements meaningless.
const raceEnabled = false
