//go:build race

package server

// Under the race detector sync.Pool drops a quarter of what it is given
// back, so a request's pooled body and key buffers are fresh that often.
func init() { raceAllocSlack = 8 }
