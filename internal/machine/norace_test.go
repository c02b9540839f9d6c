//go:build !race

package machine

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
