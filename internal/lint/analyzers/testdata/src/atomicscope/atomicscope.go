// Package atomicscope exercises the kitelint determinism-scope check: a
// deterministic package may touch atomics, locks, and channels only
// inside //kite:synccore functions.
//
//kite:deterministic
package atomicscope

import (
	"sync"
	"sync/atomic"
)

type shard struct {
	mu      sync.Mutex
	epoch   atomic.Uint64
	wake    chan struct{}
	pending []int
}

// step is ordinary shard code: no synchronization primitives allowed.
func (s *shard) step(v int) {
	s.mu.Lock()             // want `sync\.Lock call in deterministic shard code`
	s.pending = append(s.pending, v)
	s.mu.Unlock()           // want `sync\.Unlock call in deterministic shard code`
	s.epoch.Add(1)          // want `atomic operation Add in deterministic shard code`
	s.wake <- struct{}{}    // want `channel send in deterministic shard code`
}

func (s *shard) drainSignal() {
	<-s.wake // want `channel receive in deterministic shard code`
	select { // want `select in deterministic shard code`
	case <-s.wake: // want `channel receive in deterministic shard code`
	default:
	}
}

func (s *shard) reset() {
	s.wake = make(chan struct{}, 1) // want `channel creation in deterministic shard code`
	close(s.wake)                   // want `channel close in deterministic shard code`
}

// park is fan-out machinery: synchronization is its job.
//
//kite:synccore test fixture: joins whole legs, never runs inside a simulation
func (s *shard) park() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch.Add(1)
	select {
	case <-s.wake:
	default:
	}
}

// pure shard code stays untouched by the analyzer.
func (s *shard) apply(v int) {
	s.pending = append(s.pending, v)
}
