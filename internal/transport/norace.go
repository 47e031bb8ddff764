//go:build !race

package transport

// raceEnabled says the race detector is on; see readFrames.
const raceEnabled = false
