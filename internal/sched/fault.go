package sched

import "fmt"

// This file is the executor's fault surface: a mid-execution Reroute
// that (unlike SetPath) may discard banked entanglement, and the
// accessors the controller's retry/route-around policy reads. Degraded
// links reach Attempt through its edgeProb overlay. None of it is on
// the fault-free path — SetPath is untouched.

// HopsLeft returns how many EPR links node u still has to entangle.
func (s *JobState) HopsLeft(u int) int { return s.hopsLeft[u] }

// Reroute repoints node u onto a new entanglement path mid-execution,
// discarding any banked hop entanglement. SetPath forbids this —
// switching a healthy node's path would waste its accumulated
// entanglement — but a dead link has already invalidated the bank, so
// the fault layer's route-around starts the new path from scratch.
// Panics on a completed node or a degenerate path.
func (s *JobState) Reroute(u int, path []int) {
	if s.hopsLeft[u] == 0 {
		panic(fmt.Sprintf("sched: rerouting completed node %d", u))
	}
	if len(path) < 2 {
		panic(fmt.Sprintf("sched: invalid reroute path %v for node %d", path, u))
	}
	s.paths[u] = path
	s.hopsLeft[u] = len(path) - 1
}
