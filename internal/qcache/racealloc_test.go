//go:build race

package qcache

// Under the race detector sync.Pool drops a quarter of what it is given
// back, so a plan miss's containment tests build fresh scratch that
// often.
func init() { raceAllocSlack = 24 }
