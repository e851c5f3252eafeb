package core

import "fmt"

// TransitionReason qualifies a status transition whose To state alone is
// ambiguous: a job lands in StatusQueued both on plain admission-queue
// entry and when preemption checkpoints it off the cloud, and lands in
// StatusRunning both on first placement and when a checkpoint resumes.
type TransitionReason int

const (
	// ReasonNone marks an ordinary lifecycle step.
	ReasonNone TransitionReason = iota
	// ReasonPreempted marks a Running→Queued transition caused by the
	// preemption machinery checkpointing the job off the cloud.
	ReasonPreempted
	// ReasonResumed marks a transition of a previously preempted job
	// re-entering service: Pending on cross-shard SubmitResume, Running
	// when its checkpoint replays onto a fresh placement.
	ReasonResumed
	// ReasonEvicted marks a Running→Queued transition caused by the
	// fault layer checkpointing the job off a downed QPU or a draining
	// shard. Resumes of evicted jobs report ReasonResumed like
	// preemption resumes.
	ReasonEvicted
)

// String names the reason as the service's SSE events spell it.
func (r TransitionReason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonPreempted:
		return "preempted"
	case ReasonResumed:
		return "resumed"
	case ReasonEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("TransitionReason(%d)", int(r))
	}
}

// Transition is one job lifecycle state change, as delivered to the
// Config.OnTransition hook: the job moved From→To at
// virtual time At. Reason disambiguates preemption-driven transitions
// from ordinary ones.
type Transition struct {
	JobID  int
	From   JobStatus
	To     JobStatus
	At     float64
	Reason TransitionReason
}

// SetOnTransition installs (or, with nil, removes) the controller's
// lifecycle-transition hook. The hook fires synchronously from inside
// the scheduling loop at every status change, under Run as well as
// Submit and StepUntil — it must be fast and must not call back into the
// controller.
func (lc *LiveController) SetOnTransition(fn func(Transition)) { lc.cfg.OnTransition = fn }

// Mode returns the admission mode currently applied to new ticks.
func (lc *LiveController) Mode() Mode { return lc.cfg.Mode }

// SetMode switches the admission order applied from the next tick on.
// Jobs already placed are unaffected; queued jobs are re-ordered under
// the new mode. Switching away from WFQ and back preserves the WFQ
// virtual clocks (tenants' accumulated service is not forgotten), which
// is what the service layer's overload degradation to FIFO relies on.
func (lc *LiveController) SetMode(m Mode) error {
	if m < BatchMode || m > WFQMode {
		return fmt.Errorf("core: unknown admission mode %d", int(m))
	}
	lc.cfg.Mode = m
	return nil
}
