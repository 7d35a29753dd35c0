//go:build race

package engine

// The race detector drops a quarter of what a sync.Pool is handed, so a
// recycled execution is now and then a cold one.
func init() { raceAllocSlack = 40 }
