package service

import (
	"errors"
	"fmt"
	"time"

	"cloudqc/internal/wal"
)

// Replay rebuilds the server's state from write-ahead-log records
// recovered by wal.Open, before the server takes traffic. Replay is
// exact, not approximate: step records re-walk the original daemon's
// StepUntil boundaries (preserving shared-WFQ billing order and
// preemption rehoming instants) and job records re-submit each accepted
// job with its original arrival stamp, so the deterministic router and
// id sequencer reassign the very same shard-tagged ids and the
// LiveController-matches-Run guarantee makes every result, round count,
// and recorder sample bit-identical to the uninterrupted run
// (TestWALReplayDifferential).
//
// Each job record goes through accept, the live submit's own path.
// Rate limits and quotas are not re-checked — each logged job already
// passed them — but accept re-applies the degrade rule at each job
// record, exactly where the live daemon applied it, reproducing any
// WFQ→FIFO stretches. Shed (503) and rejected (429) submissions were
// never logged and never touched the admission mode, so nothing
// replays them. After Replay the wall→virtual epoch is re-anchored so
// the pacer continues from the recovered virtual time instead of
// jumping back to zero.
//
// The record stream may be fed in consecutive chunks (each call
// continues where the previous ended), but never twice: a step record
// at or behind the replayed position is rejected, which is what makes
// accidental double-replay of the same log a loud error instead of a
// silently forked history.
func (s *Server) Replay(recs []wal.Record) (jobs int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return 0, errors.New("service: replay into a drained server")
	}
	for i, rec := range recs {
		switch rec.Type {
		case wal.TypeStep:
			if rec.V <= s.walV {
				return jobs, fmt.Errorf("service: replay record %d steps to virtual time %g, at or behind the replayed position %g (duplicate or out-of-order replay?)", i, rec.V, s.walV)
			}
			if err := s.f.StepUntil(rec.V); err != nil {
				return jobs, fmt.Errorf("service: replay record %d (step to %g): %w", i, rec.V, err)
			}
			s.walV = rec.V
		case wal.TypeJob:
			circ, cerr := buildCircuit(SubmitRequest{Circuit: rec.Circuit, QASM: rec.QASM})
			if cerr != nil {
				return jobs, fmt.Errorf("service: replay record %d: %v", i, cerr)
			}
			if _, serr := s.accept(rec, circ); serr != nil {
				return jobs, fmt.Errorf("service: replay record %d (job): %w", i, serr)
			}
			jobs++
		case wal.TypeFault:
			// Re-inject at the same stream position. The live path only
			// logged injections the federation had already accepted, so an
			// error here means the log and the build disagree (wrong
			// topology or shard count) — fail loudly rather than diverge.
			if rec.Fault == nil {
				return jobs, fmt.Errorf("service: replay record %d (fault) carries no event", i)
			}
			if ferr := s.f.Inject(*rec.Fault); ferr != nil {
				return jobs, fmt.Errorf("service: replay record %d (fault %s): %w", i, rec.Fault.Kind, ferr)
			}
		default:
			return jobs, fmt.Errorf("service: replay record %d has unknown type %q", i, rec.Type)
		}
	}
	// Re-anchor the pacer: the next advance at wall time "now" must map
	// onto the replayed virtual position, not restart at zero. Nanosecond
	// rounding can land the next computed v a hair below walV; the
	// advance-side v > walV guard and StepUntil's clamp absorb that.
	if s.walV > 0 {
		s.epoch = s.cfg.Now().Add(-time.Duration(s.walV / s.cfg.TimeScale * float64(time.Second)))
	}
	return jobs, nil
}
