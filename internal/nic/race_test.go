//go:build race

package nic

// Under the race detector sync.Pool deliberately drops a share of the
// items put back, so a gate on pooled allocations cannot hold.
func init() { raceDetector = true }
