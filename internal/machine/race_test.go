//go:build race

package machine

// raceEnabled reports a race-detector build, in which sync.Pool drops a
// quarter of its Puts on purpose, so lent run scratch is rebuilt at random.
const raceEnabled = true
