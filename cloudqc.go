// Package cloudqc is a network-aware framework for multi-tenant
// distributed quantum computing, reproducing "CloudQC: A Network-aware
// Framework for Multi-tenant Distributed Quantum Computing" (ICDCS
// 2025).
//
// A quantum cloud is a cluster of QPUs — each with computing qubits and
// communication qubits — connected by quantum links. Jobs are quantum
// circuits; a circuit larger than any single QPU is partitioned across
// several, turning some two-qubit gates into remote gates that consume
// probabilistically generated EPR pairs. CloudQC contributes:
//
//   - Circuit placement (Algorithm 1/2): sweep graph-partition
//     granularities, find feasible QPU sets by modularity community
//     detection over a capacity-weighted topology, map partition centers
//     to community centers, and score candidates by estimated runtime
//     and communication cost.
//   - Network scheduling (Algorithm 3): contract the placed circuit to a
//     remote DAG, prioritize gates by longest path to a leaf, and divide
//     each QPU's communication qubits across competing gates every EPR
//     round — redundant pairs go to critical gates, and no gate starves.
//   - A multi-tenant controller: batch ordering by the intensity metric
//     (Eq. 11), FIFO mode, placement retries as capacity frees, and
//     cross-tenant communication-qubit contention. The controller is
//     event-driven (a discrete-event engine schedules arrivals,
//     releases, and EPR rounds), so idle spans cost nothing to simulate.
//
// The minimal pipeline:
//
//	cl := cloudqc.NewRandomCloud(20, 0.3, 20, 5, 1)
//	circ, _ := cloudqc.BuildCircuit("qft_n63")
//	res, _ := cloudqc.PlaceAndSchedule(cl, circ, cloudqc.DefaultModel(), 1)
//	fmt.Println(res.JCT)
//
// For multi-tenant workloads, assemble a Cluster (see NewCluster) and
// submit Jobs. Jobs may all arrive at time 0 (the paper's batch setting)
// or carry Arrival times for the online "incoming jobs" setting: sample
// timed streams with OnlineJobs (Poisson, uniform-rate, or bursty
// arrival processes) and summarize the outcome with AggregateOnline.
// Jobs may also carry a Tenant, a Priority (fair-share weight), and an
// SLO Deadline: sample heterogeneous tenant mixes with MultiTenantJobs,
// admit with EDFMode (earliest deadline first) or WFQMode (weighted
// fair queueing across tenants), bound cross-tenant starvation inside
// each EPR round with PolicyTenantWeighted, and summarize deadline
// attainment and Jain fairness with Outcomes + AggregateSLO.
// For the paper's tables and figures, see the cloudqc CLI (cmd/cloudqc,
// including its online and slo modes) and the root-level benchmarks.
package cloudqc

import (
	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/epr"
	"cloudqc/internal/fault"
	"cloudqc/internal/fed"
	"cloudqc/internal/graph"
	"cloudqc/internal/metrics"
	"cloudqc/internal/place"
	"cloudqc/internal/plan"
	"cloudqc/internal/sched"
	"cloudqc/internal/service"
	"cloudqc/internal/simq"
	"cloudqc/internal/trace"
	"cloudqc/internal/workload"
)

// Core model types, aliased from the implementation packages so the
// whole framework is usable through this single import.
type (
	// Circuit is a gate-list quantum circuit over a fixed register.
	Circuit = circuit.Circuit
	// Gate is one operation on one or two qubits.
	Gate = circuit.Gate
	// Cloud is a cluster of QPUs connected by quantum links.
	Cloud = cloud.Cloud
	// QPU is one quantum processing unit.
	QPU = cloud.QPU
	// Latency is the operation latency table (paper Table I).
	Latency = epr.Latency
	// Model combines latencies with the EPR success probability.
	Model = epr.Model
	// Placement maps a circuit's qubits onto QPUs.
	Placement = place.Placement
	// Placer is a circuit placement algorithm.
	Placer = place.Placer
	// PlacerConfig parameterizes the CloudQC placer.
	PlacerConfig = place.Config
	// RemoteDAG is the dependency graph over a placement's remote gates.
	RemoteDAG = sched.RemoteDAG
	// Policy divides communication qubits among competing remote gates.
	Policy = sched.Policy
	// ScheduleResult summarizes one network-scheduling run.
	ScheduleResult = sched.Result
	// Job is one tenant's circuit submission.
	Job = core.Job
	// JobResult reports a job's completion time and placement.
	JobResult = core.JobResult
	// Cluster is the multi-tenant controller, one run over the cloud:
	// jobs are submitted at any virtual time (Submit), the clock
	// advances in steps (StepUntil), and the backlog can be run dry
	// (Drain). Run is Submit-all plus Drain, so feeding a stream
	// incrementally at its arrival times is bit-identical to Run of it.
	// A Cluster runs once: after Drain or Run, every further call fails
	// with ErrDrained.
	Cluster = core.LiveController
	// ClusterConfig assembles a Cluster.
	ClusterConfig = core.Config
	// Workload is a named pool of benchmark circuits.
	Workload = workload.Workload
	// Topology is an immutable weighted undirected graph of quantum
	// links, so nothing a Cloud derives from it can go stale.
	Topology = graph.Graph
	// FidelityModel extends Model with link fidelity and purification.
	FidelityModel = epr.FidelityModel
	// QuantumState is a dense state vector for semantic simulation of
	// small circuits.
	QuantumState = simq.State
	// UtilizationRecorder samples cloud utilization during multi-tenant
	// runs.
	UtilizationRecorder = metrics.Recorder
	// OnlineStats aggregates an online run's job stream: throughput,
	// JCT percentiles, wait times.
	OnlineStats = metrics.OnlineStats
	// AdmissionMode selects the Cluster's job admission order (batch,
	// FIFO, EDF, or WFQ).
	AdmissionMode = core.Mode
	// TenantSpec describes one tenant of a multi-tenant mix: circuit
	// pool, arrival process, scheduling weight, deadline distribution.
	TenantSpec = workload.TenantSpec
	// JobOutcome is one job's fate in the form the SLO aggregator
	// consumes.
	JobOutcome = metrics.JobOutcome
	// SLOStats summarizes deadline attainment, cross-tenant fairness,
	// and per-tenant breakdowns of a tenant-aware run.
	SLOStats = metrics.SLOStats
	// TenantSLO is one tenant's slice of an SLO summary.
	TenantSLO = metrics.TenantSLO
	// ClusterRunStats counts the scheduling rounds and events of a
	// Cluster's run so far (Cluster.RunStats).
	ClusterRunStats = core.RunStats
	// PlanCacheStats reports the compile-once plan cache's hit, miss,
	// and eviction counters plus its occupancy: the cache memoizes
	// placement and remote-DAG construction per (circuit fingerprint,
	// cloud shape, free-capacity signature), so repeated circuit
	// templates admit without re-running the placement pipeline —
	// bit-identically to uncached runs. Read it from
	// Cluster.PlanCacheStats / Federation.PlanCacheStats and size it with
	// ClusterConfig.PlanCacheSize, once, at construction (the HTTP
	// service reports it on GET /v1/stats).
	PlanCacheStats = plan.Stats
	// CircuitFingerprint canonically identifies a circuit's structure
	// (register size, gate count, gate-sequence hash); identical
	// templates fingerprint identically regardless of job identity.
	CircuitFingerprint = circuit.Fingerprint
	// MigrationStats reports what the teleportation planner did.
	MigrationStats = sched.MigrationStats
	// JobStatus is a live job's lifecycle state (pending, queued,
	// running, completed, failed).
	JobStatus = core.JobStatus
	// LiveSnapshot is one instant of a live cluster's state.
	LiveSnapshot = core.LiveSnapshot
	// QPULoad is one QPU's capacity and current reservation in a live
	// cluster view.
	QPULoad = core.QPULoad
	// ServiceConfig assembles the HTTP job-submission service: the
	// Federation to serve, virtual-time scale, per-tenant rate limit
	// and quota.
	ServiceConfig = service.Config
	// JobService serves a Federation over HTTP JSON
	// (POST /v1/jobs, GET /v1/jobs/{id}, /v1/stats, /v1/cluster); it
	// implements http.Handler. The cloudqcd daemon is its standalone
	// wrapper.
	JobService = service.Server
	// Federation is the federated controller tier and the one live
	// backend the job service serves: N shard controllers over N shard
	// clouds behind one admission router, with WFQ billing into a
	// shared virtual-clock space so weighted fairness holds
	// federation-wide. A 1-shard Federation is bit-identical to a
	// Cluster built from the same configuration.
	Federation = fed.Federation
	// FederationConfig assembles a Federation: the per-shard
	// ClusterConfig template, the shard clouds, routing, spill depth.
	FederationConfig = fed.Config
	// RoutingMode selects the federation's admission routing (affinity
	// or random).
	RoutingMode = fed.Routing
	// RouterStats are the admission router's decision counters.
	RouterStats = fed.RouterStats
	// WFQClock is the shared per-tenant virtual-clock space WFQ
	// controllers bill into; hand one clock to several controllers (or
	// let a Federation do it) to extend weighted fairness across them.
	WFQClock = core.WFQClock
	// PreemptPolicy selects checkpoint-based preemption at EPR-round
	// boundaries (off, deadline-rescue, or priority); set it via
	// ClusterConfig.Preempt.
	PreemptPolicy = core.PreemptPolicy
	// PreemptStats counts preemptions, resumes, and rescued deadlines
	// (Cluster.PreemptStats / Federation.PreemptStats; the HTTP service
	// reports it on GET /v1/stats).
	PreemptStats = core.PreemptStats
	// TraceRecorder records deterministic virtual-time execution spans
	// for every job a controller runs: queue wait, admission decision,
	// compiles, EPR rounds, suspensions, cross-shard rehomes, and a JCT
	// attribution whose phases sum to the JCT exactly. Attach one via
	// ClusterConfig.Trace or FederationConfig.Trace (shared across
	// shards); nil keeps tracing off at zero hot-path cost. The HTTP
	// service serves traces on GET /v1/jobs/{id}/trace.
	TraceRecorder = trace.Recorder
	// JobTrace is one job's recorded span tree.
	JobTrace = trace.JobTrace
	// JCTAttribution splits one job's completion time into queue /
	// compile / local-compute / network-stall / suspended phases.
	JCTAttribution = trace.Attribution
	// TenantAttribution is one tenant's exact per-phase attribution
	// aggregate over its settled traces.
	TenantAttribution = trace.TenantAttribution
	// FaultPlan is a deterministic virtual-time fault schedule — QPU
	// outages, link degradations, federation shard drains — plus the
	// recovery knobs it exercises (checkpoint-rescue vs fail, bounded
	// retry, dead-edge route-around). Set it via ClusterConfig.Faults
	// (core-tier faults) or FederationConfig.Faults (the federation
	// splits the plan per shard and intercepts shard drains); nil keeps
	// every fault hook dormant at zero cost, bit-identically to the
	// fault-free controller.
	FaultPlan = fault.Plan
	// FaultEvent is one scheduled fault of a FaultPlan, or one live
	// injection (Federation.Inject; POST /v1/faults on the service).
	FaultEvent = fault.Event
	// FaultStats counts injected faults by kind and the recovery work
	// they forced (Cluster.FaultStats / Federation.FaultStats; the HTTP
	// service reports it on GET /v1/stats).
	FaultStats = fault.Stats
)

// ErrDrained reports an operation on a live controller or federation
// whose Drain already ran; the HTTP service maps it to 409 Conflict.
var ErrDrained = core.ErrDrained

// Lifecycle states of a job in a Cluster / JobService.
const (
	// StatusUnknown: the id was never submitted (Status's zero answer).
	StatusUnknown = core.StatusUnknown
	// StatusPending: submitted, arrival still in the virtual future.
	StatusPending = core.StatusPending
	// StatusQueued: arrived, waiting for placement.
	StatusQueued = core.StatusQueued
	// StatusRunning: holding computing qubits, executing.
	StatusRunning = core.StatusRunning
	// StatusCompleted: finished; the JobResult is final.
	StatusCompleted = core.StatusCompleted
	// StatusFailed: can never be placed.
	StatusFailed = core.StatusFailed
)

// Admission modes for the multi-tenant controller.
const (
	// BatchMode orders waiting jobs by the paper's intensity metric.
	BatchMode = core.BatchMode
	// FIFOMode admits jobs strictly in arrival order.
	FIFOMode = core.FIFOMode
	// EDFMode admits waiting jobs earliest-deadline-first (Job.Deadline;
	// jobs without deadlines last).
	EDFMode = core.EDFMode
	// WFQMode is weighted fair queueing across tenants: admission is
	// served in proportion to tenant Priority via start-time fair
	// queueing over per-tenant virtual service.
	WFQMode = core.WFQMode
)

// Preemption policies for the multi-tenant controller (Cluster and
// Federation alike). With PreemptOff the controller is bit-identical to
// run-to-completion execution.
const (
	// PreemptOff disables preemption: placements are final.
	PreemptOff = core.PreemptOff
	// PreemptRescue lets a queued job with a live deadline
	// checkpoint-and-displace running jobs with strictly later deadlines.
	PreemptRescue = core.PreemptRescue
	// PreemptPriority lets a queued job displace running jobs of
	// strictly lower tenant weight.
	PreemptPriority = core.PreemptPriority
)

// ParsePreemptPolicy maps a policy name — "off" (or empty), "rescue",
// or "priority" — to its PreemptPolicy.
func ParsePreemptPolicy(s string) (PreemptPolicy, error) { return core.ParsePreempt(s) }

// Fault kinds and recovery policies (FaultEvent.Kind, FaultPlan.Recovery).
const (
	// FaultQPUOutage takes one QPU down for an interval; resident jobs
	// are checkpoint-rescued (or failed under FaultRecoveryNone).
	FaultQPUOutage = fault.KindQPUOutage
	// FaultLinkDegrade scales one link's EPR success probability (0
	// kills it) for an interval.
	FaultLinkDegrade = fault.KindLinkDegrade
	// FaultShardDrain evacuates one federation shard: resident jobs
	// checkpoint and rehome through the router, then the shard leaves
	// the routing set.
	FaultShardDrain = fault.KindShardDrain
	// FaultRecoveryRescue checkpoints jobs evicted by an outage and
	// re-enqueues them (the default).
	FaultRecoveryRescue = fault.RecoveryRescue
	// FaultRecoveryNone fails evicted jobs outright (the ablation arm).
	FaultRecoveryNone = fault.RecoveryNone
)

// LoadFaultPlan reads and validates a JSON fault plan file (the
// cloudqcd -faults flag's format).
func LoadFaultPlan(path string) (*FaultPlan, error) { return fault.Load(path) }

// Federation admission-routing modes.
const (
	// RouteAffinity routes each job to the shard that last served its
	// (tenant, circuit fingerprint) pair — plan-cache locality — with
	// load spillover; the default.
	RouteAffinity = fed.RouteAffinity
	// RouteRandom routes uniformly at random (seeded): the ablation arm.
	RouteRandom = fed.RouteRandom
	// DefaultSpillDepth is the affinity router's backlog slack when
	// FederationConfig.SpillDepth is zero.
	DefaultSpillDepth = fed.DefaultSpillDepth
)
