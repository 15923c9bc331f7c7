//go:build !race

package paperexp

// raceDetector reports whether the test binary was built with -race.
const raceDetector = false
