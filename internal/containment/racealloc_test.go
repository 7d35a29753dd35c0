//go:build race

package containment

// Under the race detector sync.Pool drops a quarter of what it is given
// back, so a containment test builds fresh scratch that often.
func init() { raceAllocSlack = 12 }
