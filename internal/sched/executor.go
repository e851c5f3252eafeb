package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
)

// JobState tracks one remote DAG's execution progress across EPR rounds.
// The multi-tenant controller drives several JobStates against a shared
// budget; the single-job Run drives one.
type JobState struct {
	dag *RemoteDAG
	// prio caches the DAG priorities.
	prio []int
	// pending counts unfinished predecessors per node.
	pending []int
	// readyAt is the earliest time a node may start EPR attempts: its
	// predecessors' finish plus its local lag. Nodes whose preds are
	// unfinished hold +Inf implicitly via pending > 0.
	readyAt []float64
	// hopsLeft counts EPR links still to entangle per node.
	hopsLeft []int
	// paths holds each node's entanglement path; defaults to the remote
	// DAG's shortest path, replaceable via SetPath before first attempt
	// (congestion-aware multipath routing).
	paths [][]int
	// attempted marks nodes whose EPR attempts have started; their path
	// is frozen.
	attempted []bool
	// finish records node completion times.
	finish    []float64
	remaining int
	maxFinish float64
	start     float64
	// runnable lists nodes with no unfinished predecessors that still
	// have hops left; maintained incrementally so Ready costs O(front)
	// instead of O(nodes) per round.
	runnable []int
}

// NewJobState prepares execution state for a remote DAG whose EPR
// attempts may begin at the given start time (job arrival/placement).
func NewJobState(dag *RemoteDAG, start float64) *JobState {
	s := &JobState{}
	s.Reinit(dag, nil, start)
	return s
}

// Reinit re-prepares s for a (possibly different) remote DAG starting
// at the given time, reusing its per-node backing arrays when their
// capacity allows — the multi-tenant controller pools retired JobStates
// so cache-hit admissions allocate nothing per node. prio, when
// non-nil, must be dag.Priorities() (a plan-cache copy); s aliases it
// read-only. The result is indistinguishable from a fresh
// NewJobState(dag, start).
func (s *JobState) Reinit(dag *RemoteDAG, prio []int, start float64) {
	n := dag.Len()
	if prio == nil {
		prio = dag.Priorities()
	}
	s.dag = dag
	s.prio = prio
	s.pending = grow(s.pending, n)
	s.readyAt = grow(s.readyAt, n)
	s.hopsLeft = grow(s.hopsLeft, n)
	s.paths = grow(s.paths, n)
	s.attempted = grow(s.attempted, n)
	s.finish = grow(s.finish, n)
	s.remaining = n
	s.maxFinish = 0
	s.start = start
	s.runnable = s.runnable[:0]
	for i := 0; i < n; i++ {
		s.pending[i] = len(dag.Preds[i])
		s.hopsLeft[i] = dag.Nodes[i].Hops()
		s.paths[i] = dag.Nodes[i].Path
		s.readyAt[i] = start + dag.Nodes[i].Lag
		s.attempted[i] = false
		s.finish[i] = 0
		if s.pending[i] == 0 {
			s.runnable = append(s.runnable, i)
		}
	}
}

// grow returns a length-n slice reusing buf's backing array when it is
// large enough.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Path returns node u's current entanglement path.
func (s *JobState) Path(u int) []int { return s.paths[u] }

// Attempted reports whether node u has started EPR attempts.
func (s *JobState) Attempted(u int) bool { return s.attempted[u] }

// Priority returns node u's remote-DAG priority.
func (s *JobState) Priority(u int) int { return s.prio[u] }

// SetPath reroutes node u onto an alternative QPU path. Panics if the
// node has already started attempting — switching paths would discard
// accumulated hop entanglement.
func (s *JobState) SetPath(u int, path []int) {
	if s.attempted[u] {
		panic(fmt.Sprintf("sched: rerouting node %d after attempts started", u))
	}
	if len(path) < 2 {
		panic(fmt.Sprintf("sched: invalid path %v for node %d", path, u))
	}
	s.paths[u] = path
	s.hopsLeft[u] = len(path) - 1
}

// Done reports whether every remote gate has completed.
func (s *JobState) Done() bool { return s.remaining == 0 }

// JCT returns the job completion time: the last remote gate's finish
// plus the trailing local critical path — or the purely local runtime
// for placements with no remote gates.
func (s *JobState) JCT() float64 {
	if s.dag.Len() == 0 {
		return s.start + s.dag.LocalOnly
	}
	return s.maxFinish + s.dag.Tail
}

// MaxFinish returns the completion time of the latest-finishing remote
// gate so far (zero before any completes, or for placements with no
// remote gates). For a done job, JCT() == MaxFinish() plus the trailing
// local critical path — the split virtual-time tracing uses to end the
// network-stall phase where local-only compute takes over.
func (s *JobState) MaxFinish() float64 {
	if s.dag.Len() == 0 {
		return 0
	}
	return s.maxFinish
}

// AppendReady appends to dst (usually a reused scratch buffer sliced
// to length 0) the node ids allowed to attempt EPR generation in the
// round starting at time t, so per-round collection on the
// controller's hot path allocates nothing once the buffers warm up.
// Completed nodes are compacted out of the runnable list lazily.
func (s *JobState) AppendReady(dst []int, t float64) []int {
	w := 0
	for _, i := range s.runnable {
		if s.hopsLeft[i] == 0 {
			continue // completed; drop from runnable
		}
		s.runnable[w] = i
		w++
		if s.readyAt[i] <= t {
			dst = append(dst, i)
		}
	}
	s.runnable = s.runnable[:w]
	return dst
}

// AppendRequests converts ready nodes into policy requests tagged with
// job, appending into dst (usually a reused scratch buffer sliced to
// length 0) so per-round collection allocates nothing once warm.
func (s *JobState) AppendRequests(dst []Request, job int, ready []int) []Request {
	for _, u := range ready {
		dst = append(dst, Request{
			Key:      NodeKey{Job: job, Node: u},
			Path:     s.paths[u],
			Priority: s.prio[u],
		})
	}
	return dst
}

// Attempt runs node u's EPR round with the given pair allocation,
// sampling one Bernoulli trial per unfinished hop. If every hop is
// entangled by the round's end, the gate completes: entanglement
// swapping at intermediates, gate execution, and measurement follow.
// q is the round's per-hop success probability, m.RoundSuccess(pairs);
// the caller passes it so a controller can look it up once per pair
// count instead of calling math.Pow per attempt. roundStart is the
// round's opening time.
//
// edgeProb, when non-nil, is a per-edge success-probability overlay for
// degraded links: hop k of u's path (the edge path[k]→path[k+1]) then
// succeeds with epr.RoundSuccessProb(edgeProb(path[k], path[k+1]),
// pairs) instead of q. The unentangled hops are the path's suffix (the
// first len(path)-1-hopsLeft are banked). Either way each unfinished
// hop draws exactly one trial, so a uniform overlay reproduces the nil
// one bit-for-bit on the same RNG stream.
func (s *JobState) Attempt(u, pairs int, q, roundStart float64, m epr.Model, rng *rand.Rand, edgeProb func(a, b int) float64) {
	if pairs <= 0 || s.hopsLeft[u] == 0 {
		return
	}
	s.attempted[u] = true
	path := s.paths[u]
	hops := len(path) - 1
	for k := hops - s.hopsLeft[u]; k < hops; k++ {
		p := q
		if edgeProb != nil {
			p = epr.RoundSuccessProb(edgeProb(path[k], path[k+1]), pairs)
		}
		if rng.Float64() < p {
			s.hopsLeft[u]--
		}
	}
	if s.hopsLeft[u] == 0 {
		swaps := float64(float64(len(s.paths[u])-2) * m.Measure)
		s.complete(u, roundStart+m.EPRAttempt+swaps+m.TwoQubit+m.Measure)
	}
}

func (s *JobState) complete(u int, at float64) {
	s.finish[u] = at
	s.remaining--
	if at > s.maxFinish {
		s.maxFinish = at
	}
	for _, v := range s.dag.Succs[u] {
		s.pending[v]--
		if ra := at + s.dag.Nodes[v].Lag; ra > s.readyAt[v] {
			s.readyAt[v] = ra
		}
		if s.pending[v] == 0 {
			s.runnable = append(s.runnable, v)
		}
	}
}

// Result summarizes one scheduling run.
type Result struct {
	// JCT is the job completion time in CX units.
	JCT float64
	// Rounds is the number of EPR attempt rounds simulated.
	Rounds int
	// RemoteGates is the remote DAG size.
	RemoteGates int
}

// Run simulates a single job's remote DAG to completion under the given
// allocation policy, with each QPU contributing its full communication
// qubit budget every EPR round. It is Algorithm 3's main loop.
func Run(dag *RemoteDAG, cl *cloud.Cloud, m epr.Model, p Policy, rng *rand.Rand) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	return runSingle(dag, cl, m, p, rng, nil, nil)
}

// runSingle is the single-job round loop behind Run, RunMultipath and
// RunFidelity; the caller validates the model first. It rejects clouds
// with a QPU lacking communication qubits, then lets prepare, when
// non-nil, adjust the fresh JobState (or reject the DAG) before the
// first round. Each round collects the ready remote gates — jumping the
// clock over stalls to the next enabling instant — refills every QPU's
// full communication-qubit budget, runs round (when non-nil) on the
// ready set and budget, allocates pairs under p, attempts them, and
// advances the clock by one EPRAttempt slot.
func runSingle(dag *RemoteDAG, cl *cloud.Cloud, m epr.Model, p Policy, rng *rand.Rand,
	prepare func(s *JobState) error, round func(s *JobState, ready, budget []int)) (Result, error) {
	for i := 0; i < cl.NumQPUs(); i++ {
		if cl.QPU(i).Comm < 1 {
			return Result{}, fmt.Errorf("sched: QPU %d has no communication qubits", i)
		}
	}
	s := NewJobState(dag, 0)
	if prepare != nil {
		if err := prepare(s); err != nil {
			return Result{}, err
		}
	}
	res := Result{RemoteGates: dag.Len()}
	if dag.Len() == 0 {
		res.JCT = s.JCT()
		return res, nil
	}
	budget := make([]int, cl.NumQPUs())
	var ready, grants []int
	var reqs []Request
	t := 0.0
	for !s.Done() {
		ready = s.AppendReady(ready[:0], t)
		if len(ready) == 0 {
			// All runnable nodes are waiting on finish times beyond t:
			// jump to the next enabling instant.
			t = s.nextEnableTime(t)
			continue
		}
		for i := range budget {
			budget[i] = cl.QPU(i).Comm
		}
		if round != nil {
			round(s, ready, budget)
		}
		reqs = s.AppendRequests(reqs[:0], 0, ready)
		grants = slices.Grow(grants[:0], len(reqs))[:len(reqs)]
		AllocateInto(p, reqs, budget, grants, rng)
		for k, u := range ready {
			s.Attempt(u, grants[k], m.RoundSuccess(grants[k]), t, m, rng, nil)
		}
		res.Rounds++
		t += m.EPRAttempt
	}
	res.JCT = s.JCT()
	return res, nil
}

// nextEnableTime returns the earliest readyAt among runnable nodes that
// is after t; it must exist while the job is not done.
func (s *JobState) nextEnableTime(t float64) float64 {
	next, ok := s.NextEnableTime(t)
	if !ok || next <= t {
		panic(fmt.Sprintf("sched: stalled with %d remaining nodes", s.remaining))
	}
	return next
}

// NextEnableTime returns the earliest time >= t at which some runnable
// node may attempt EPR generation (a node whose readyAt has passed is
// enabled immediately, so t itself is returned, and the scan stops
// there: no answer is earlier than t). The second result is false when
// the job has no runnable unfinished nodes — either it is done, or
// every unfinished node still waits on predecessors.
func (s *JobState) NextEnableTime(t float64) (float64, bool) {
	next := math.Inf(1)
	for _, i := range s.runnable {
		if s.hopsLeft[i] == 0 {
			continue
		}
		ra := s.readyAt[i]
		if ra <= t {
			next = t
			break
		}
		if ra < next {
			next = ra
		}
	}
	return next, !math.IsInf(next, 1)
}
