// Package trace records deterministic virtual-time execution spans for
// every job a controller runs: queue wait, the admission decision,
// compiles (plan-cache hit or miss), each EPR round the job
// participates in, preemption suspensions, cross-shard rehomes, and
// completion. All timestamps are virtual CX units taken from the
// controller's own clock, never the wall clock, so a trace is a pure
// function of the workload and the configuration: bit-identical across
// worker counts, shard counts, and WAL replay — a differential-testable
// property no wall-clock tracer has.
//
// From the raw spans each trace derives a JCT attribution: the job's
// completion time split into queue / compile / local-compute /
// network-stall / suspended phases that sum to the JCT to within
// rounding. Queue and the measured phases (network, suspended)
// accumulate closed virtual-time intervals; local compute is derived
// at settlement as JCT − queue − compile − network − suspended, so the
// measured phases' floating-point dust lands in Local instead of
// piling up. The sum is not bitwise: adding the phases back can miss
// the JCT by an ulp, and for some phase values no Local makes it
// exact (the federation swarm test checks at most two ulps). Compile
// is structurally zero in this model — placement and DAG contraction
// happen within the admission instant — but stays a first-class phase
// so the schema does not change if a compile-latency model ever lands.
//
// A Recorder is unsynchronized and inherits its controller's
// synchronization discipline, exactly like metrics.Recorder: a
// federation hands one shared recorder to every shard (shards step
// sequentially), and the service layer reads it under the same lock
// that drives the controller. The hot-path hook (JobTrace.Round) is
// allocation-free after a job's first participating round: round spans
// land in a fixed-capacity ring that overwrites its oldest entry,
// counting what it dropped, while the attribution scalars stay exact
// regardless of ring drops.
package trace

import "sort"

// DefaultRoundCap bounds each job's round-span ring. 256 rounds cover
// every qlib benchmark circuit at the paper's EPR success probability;
// longer executions overwrite their oldest round spans (counted in
// RoundsDropped) without losing attribution precision.
const DefaultRoundCap = 256

// AdmitSpan is the job's admission decision at its first placement:
// which admission mode ordered it and — under WFQ — the virtual start
// tag its tenant was billed from.
type AdmitSpan struct {
	// At is the placement instant (virtual CX).
	At float64 `json:"at"`
	// Mode names the admission mode that ordered the job.
	Mode string `json:"mode"`
	// WFQStart is the tenant's WFQ virtual start tag for this placement;
	// meaningful only when WFQ is true (resumes and non-WFQ modes are
	// never billed).
	WFQStart float64 `json:"wfq_virtual_start"`
	WFQ      bool    `json:"wfq"`
}

// CompileSpan is one successful compile: a placement plus remote-DAG
// resolution, either served from the plan cache or computed cold. A
// preempted job compiles again at every resume, so a trace may hold
// several.
type CompileSpan struct {
	At float64 `json:"at"`
	// CacheHit marks a plan-cache hit (memoized placement + DAG).
	CacheHit bool `json:"cache_hit"`
	// Resume marks a re-compile for a checkpoint resume placement.
	Resume bool `json:"resume"`
}

// RoundSpan is one EPR round the job participated in: how many remote
// gates were ready, how many EPR requests it submitted, how much of
// the communication budget it was granted, and the longest
// entanglement path (in hops) among its requests — >1 means swaps at
// intermediate QPUs.
type RoundSpan struct {
	At        float64 `json:"at"`
	Ready     int     `json:"ready"`
	Requested int     `json:"requested"`
	Granted   int     `json:"granted"`
	MaxHops   int     `json:"max_hops"`
}

// SuspendSpan is one checkpoint suspension: the job was preempted off
// the cloud at From and resumed onto a fresh placement at To. An
// unsettled job's last span may still be open (Resumed false).
type SuspendSpan struct {
	From    float64 `json:"from"`
	To      float64 `json:"to"`
	Resumed bool    `json:"resumed"`
}

// RehomeSpan is a federation rehoming decision: the preempted job's
// resume was routed from one shard to another (possibly the same), with
// the router's decision kind (affinity, spill, cold, or random).
type RehomeSpan struct {
	At   float64 `json:"at"`
	From int     `json:"from_shard"`
	To   int     `json:"to_shard"`
	Kind string  `json:"kind"`
}

// FaultSpan is one fault-layer event that touched the job: a QPU outage
// that evicted it, a shard drain that rehomed it, a dead-link
// route-around, or a retry-budget exhaustion that failed it.
type FaultSpan struct {
	At   float64 `json:"at"`
	Kind string  `json:"kind"`
}

// Attribution is a settled job's JCT decomposition in virtual CX
// units. For completed jobs Queue + Compile + Local + Network +
// Suspended equals JCT to within rounding (an ulp or two, not
// bitwise): Local is derived at settlement as the remainder, so it
// absorbs the floating-point dust from the measured phases (clamp it
// when rendering fractions). Failed jobs carry only
// Queue (arrival to failure) and a zero JCT.
type Attribution struct {
	JCT       float64 `json:"jct"`
	Queue     float64 `json:"queue"`
	Compile   float64 `json:"compile"`
	Local     float64 `json:"local"`
	Network   float64 `json:"network"`
	Suspended float64 `json:"suspended"`
}

// JobTrace is one job's span record. The exported fields are the span
// tree the service serializes; the unexported fields are the live
// accumulation marks.
type JobTrace struct {
	ID      int
	Tenant  int
	Arrival float64
	// Finished is the settlement instant (completion or failure);
	// Done marks settlement, Failed how it settled.
	Finished float64
	Done     bool
	Failed   bool

	// Attr is the JCT attribution, final once Done.
	Attr Attribution

	// Admit is the first-placement admission decision (zero until the
	// job places).
	Admit AdmitSpan

	Compiles []CompileSpan
	Suspends []SuspendSpan
	Rehomes  []RehomeSpan
	Faults   []FaultSpan

	// RoundsTotal counts every round span recorded; RoundsDropped how
	// many of them the ring overwrote. The retained spans are the most
	// recent RoundsTotal-RoundsDropped.
	RoundsTotal   int
	RoundsDropped int

	// rounds is the fixed-capacity span ring; roundStart indexes its
	// oldest retained entry once the ring has wrapped.
	rounds     []RoundSpan
	roundStart int
	roundCap   int

	// lastMark is the last virtual instant the network accumulator
	// settled at; attempting is true while the job holds ready remote
	// gates awaiting EPR, i.e. the stretch from lastMark onward is
	// network stall.
	lastMark   float64
	attempting bool
	// placed marks the first placement (Queue is only charged once;
	// resume placements close suspensions instead).
	placed bool
}

// Place records a placement: the first one charges the queue phase and
// the admission decision, a resume placement closes the open
// suspension. Either way the network mark restarts here.
func (tr *JobTrace) Place(t float64, mode string, wfqStart float64, wfq, resumed bool) {
	if !tr.placed {
		tr.placed = true
		tr.Attr.Queue = t - tr.Arrival
		tr.Admit = AdmitSpan{At: t, Mode: mode, WFQStart: wfqStart, WFQ: wfq}
	}
	if resumed {
		if n := len(tr.Suspends); n > 0 && !tr.Suspends[n-1].Resumed {
			s := &tr.Suspends[n-1]
			s.To = t
			s.Resumed = true
			tr.Attr.Suspended += t - s.From
		}
	}
	tr.lastMark = t
	tr.attempting = false
}

// Placed reports whether the job has had its first placement (the
// Admit span is meaningful only once it has).
func (tr *JobTrace) Placed() bool { return tr.placed }

// Compiled records one successful compile.
func (tr *JobTrace) Compiled(t float64, cacheHit, resume bool) {
	tr.Compiles = append(tr.Compiles, CompileSpan{At: t, CacheHit: cacheHit, Resume: resume})
}

// Round is the hot-path hook, called once per EPR round tick for every
// active traced job. The interval since the previous mark is network
// stall iff the job was attempting EPR across it; rounds where the job
// held ready gates are recorded as spans in the ring.
func (tr *JobTrace) Round(t float64, ready, requested, granted, maxHops int) {
	if tr.attempting {
		tr.Attr.Network += t - tr.lastMark
	}
	tr.lastMark = t
	tr.attempting = ready > 0
	if ready == 0 {
		return
	}
	tr.RoundsTotal++
	span := RoundSpan{At: t, Ready: ready, Requested: requested, Granted: granted, MaxHops: maxHops}
	if len(tr.rounds) < tr.roundCap {
		tr.rounds = append(tr.rounds, span)
		return
	}
	tr.rounds[tr.roundStart] = span
	tr.roundStart = (tr.roundStart + 1) % len(tr.rounds)
	tr.RoundsDropped++
}

// Preempt records a checkpoint suspension starting at t: any open
// network stretch closes here and a suspension span opens.
func (tr *JobTrace) Preempt(t float64) {
	if tr.attempting {
		tr.Attr.Network += t - tr.lastMark
		tr.attempting = false
	}
	tr.lastMark = t
	tr.Suspends = append(tr.Suspends, SuspendSpan{From: t})
}

// Rehome records a federation rehoming decision for the open
// suspension.
func (tr *JobTrace) Rehome(at float64, from, to int, kind string) {
	tr.Rehomes = append(tr.Rehomes, RehomeSpan{At: at, From: from, To: to, Kind: kind})
}

// Fault records a fault-layer event touching the job (eviction, drain,
// route-around, retry exhaustion). Attribution is unaffected: an
// eviction's suspension opens through Preempt as usual.
func (tr *JobTrace) Fault(t float64, kind string) {
	tr.Faults = append(tr.Faults, FaultSpan{At: t, Kind: kind})
}

// Rounds appends the retained round spans, oldest first, to dst and
// returns it. The ring itself is never exposed.
func (tr *JobTrace) Rounds(dst []RoundSpan) []RoundSpan {
	n := len(tr.rounds)
	for i := 0; i < n; i++ {
		dst = append(dst, tr.rounds[(tr.roundStart+i)%n])
	}
	return dst
}

// TenantAttribution is one tenant's exact attribution aggregate: the
// per-phase sums over every settled trace of that tenant, added in
// settlement order — which is what lets /v1/stats be differential-tested
// against the per-job traces. Each addend's phases sum to its JCT to
// within rounding, so the aggregate's phases sum to the aggregate JCT
// to within the rounding of every addend.
type TenantAttribution struct {
	Tenant    int     `json:"tenant"`
	Completed int     `json:"completed"`
	Failed    int     `json:"failed"`
	JCT       float64 `json:"jct"`
	Queue     float64 `json:"queue"`
	Compile   float64 `json:"compile"`
	Local     float64 `json:"local"`
	Network   float64 `json:"network"`
	Suspended float64 `json:"suspended"`
}

func (ta *TenantAttribution) add(tr *JobTrace) {
	if tr.Failed {
		ta.Failed++
	} else {
		ta.Completed++
	}
	ta.JCT += tr.Attr.JCT
	ta.Queue += tr.Attr.Queue
	ta.Compile += tr.Attr.Compile
	ta.Local += tr.Attr.Local
	ta.Network += tr.Attr.Network
	ta.Suspended += tr.Attr.Suspended
}

// Recorder collects the traces of one execution stack: a controller, a
// live controller, or a whole federation (every shard records into the
// one shared recorder, so a trace survives cross-shard rehoming
// intact). Traces are retained for the recorder's lifetime, like the
// service layer's results.
type Recorder struct {
	roundCap int
	byID     map[int]*JobTrace
	tenants  map[int]*TenantAttribution
}

// New builds an empty recorder with the default round-span ring
// capacity.
func New() *Recorder {
	return &Recorder{
		roundCap: DefaultRoundCap,
		byID:     make(map[int]*JobTrace),
		tenants:  make(map[int]*TenantAttribution),
	}
}

// Arrive opens (or, for a resume arrival re-entering admission on
// another shard, returns) the job's trace. The first arrival pins
// Arrival; later calls for the same id are no-ops so cross-shard
// resumes keep the original queue accounting.
func (r *Recorder) Arrive(id, tenant int, at float64) *JobTrace {
	if tr, ok := r.byID[id]; ok {
		return tr
	}
	tr := &JobTrace{ID: id, Tenant: tenant, Arrival: at, roundCap: r.roundCap}
	r.byID[id] = tr
	return tr
}

// Get returns the job's trace, or nil when the id was never recorded
// (e.g. a controller driven without arrival events).
func (r *Recorder) Get(id int) *JobTrace { return r.byID[id] }

// Settle finalizes a completed trace: the trailing network stretch
// closes at maxFinish (the last remote gate's completion — the local
// tail after it is local compute), and local compute is derived as the
// remainder, so the attribution sums to the JCT to within rounding.
func (r *Recorder) Settle(tr *JobTrace, finished, maxFinish float64) {
	if tr == nil || tr.Done {
		return
	}
	if tr.attempting {
		if maxFinish > tr.lastMark {
			tr.Attr.Network += maxFinish - tr.lastMark
		}
		tr.attempting = false
	}
	tr.Finished = finished
	tr.Done = true
	tr.Attr.JCT = finished - tr.Arrival
	tr.Attr.Local = tr.Attr.JCT - tr.Attr.Queue - tr.Attr.Compile - tr.Attr.Network - tr.Attr.Suspended
	r.tenant(tr.Tenant).add(tr)
}

// Fail finalizes a failed trace: the job never completed, so only the
// wait from arrival to the failure instant is attributed (as queue
// time for a never-placed job) and the JCT stays zero, matching the
// result the controller reports.
func (r *Recorder) Fail(id int, at float64) {
	tr := r.byID[id]
	if tr == nil || tr.Done {
		return
	}
	tr.Finished = at
	tr.Done = true
	tr.Failed = true
	if !tr.placed {
		tr.Attr.Queue = at - tr.Arrival
	}
	tr.attempting = false
	r.tenant(tr.Tenant).add(tr)
}

func (r *Recorder) tenant(id int) *TenantAttribution {
	ta, ok := r.tenants[id]
	if !ok {
		ta = &TenantAttribution{Tenant: id}
		r.tenants[id] = ta
	}
	return ta
}

// Len reports how many traces the recorder holds.
func (r *Recorder) Len() int { return len(r.byID) }

// Traces returns every trace ordered by job id.
func (r *Recorder) Traces() []*JobTrace {
	out := make([]*JobTrace, 0, len(r.byID))
	for _, tr := range r.byID {
		out = append(out, tr)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Tenants returns the per-tenant attribution aggregates ordered by
// tenant id.
func (r *Recorder) Tenants() []TenantAttribution {
	out := make([]TenantAttribution, 0, len(r.tenants))
	for _, ta := range r.tenants {
		out = append(out, *ta)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Tenant < out[k].Tenant })
	return out
}
