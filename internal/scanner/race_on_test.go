//go:build race

package scanner

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a random quarter of its Puts, so allocation counts on a
// pooled path measure the refills, not the path.
const raceEnabled = true
