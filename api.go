package cloudqc

import (
	"math/rand"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/epr"
	"cloudqc/internal/fed"
	"cloudqc/internal/graph"
	"cloudqc/internal/metrics"
	"cloudqc/internal/place"
	"cloudqc/internal/plan"
	"cloudqc/internal/qasm"
	"cloudqc/internal/qlib"
	"cloudqc/internal/sched"
	"cloudqc/internal/service"
	"cloudqc/internal/simq"
	"cloudqc/internal/trace"
	"cloudqc/internal/workload"
)

// NewRandomCloud builds a quantum cloud of n QPUs over a connected
// random topology (edge probability edgeProb) with the given computing
// and communication qubits per QPU. The paper's default is
// NewRandomCloud(20, 0.3, 20, 5, seed).
func NewRandomCloud(n int, edgeProb float64, computing, comm int, seed int64) *Cloud {
	return cloud.NewRandom(n, edgeProb, computing, comm, seed)
}

// NewCircuit returns an empty named circuit over n qubits; append gates
// with the circuit's Append method and the gate constructors (CX, H, ...).
func NewCircuit(name string, n int) *Circuit { return circuit.New(name, n) }

// Gate constructors re-exported for building circuits by hand.

// H returns a Hadamard gate on q.
func H(q int) Gate { return circuit.H(q) }

// X returns a Pauli-X gate on q.
func X(q int) Gate { return circuit.X(q) }

// RZ returns a Z-rotation by theta on q.
func RZ(q int, theta float64) Gate { return circuit.RZ(q, theta) }

// RY returns a Y-rotation by theta on q.
func RY(q int, theta float64) Gate { return circuit.RY(q, theta) }

// CX returns a CNOT with control c and target t.
func CX(c, t int) Gate { return circuit.CX(c, t) }

// CZ returns a controlled-Z on c and t.
func CZ(c, t int) Gate { return circuit.CZ(c, t) }

// M returns a measurement of q.
func M(q int) Gate { return circuit.M(q) }

// BuildCircuit constructs a benchmark circuit from the QASMBench-style
// generator library by name (e.g. "qft_n160", "qugan_n111").
func BuildCircuit(name string) (*Circuit, error) { return qlib.Build(name) }

// CircuitNames lists every available benchmark circuit.
func CircuitNames() []string { return qlib.Names() }

// ParseQASM parses an OpenQASM 2.0 program (QASMBench subset).
func ParseQASM(name, src string) (*Circuit, error) { return qasm.Parse(name, src) }

// WriteQASM renders a circuit as OpenQASM 2.0 source.
func WriteQASM(c *Circuit) string { return qasm.Write(c) }

// DefaultModel returns Table I latencies with EPR success probability
// 0.3 — the paper's default simulation model.
func DefaultModel() Model { return epr.DefaultModel() }

// DefaultPlacerConfig returns the paper's CloudQC placement parameters.
func DefaultPlacerConfig() PlacerConfig { return place.DefaultConfig() }

// NewPlacer returns the CloudQC placement algorithm (Algorithm 1).
func NewPlacer(cfg PlacerConfig) Placer { return place.NewCloudQC(cfg) }

// NewBFSPlacer returns the CloudQC-BFS variant that grows feasible QPU
// sets by breadth-first search instead of community detection.
func NewBFSPlacer(cfg PlacerConfig) Placer {
	cfg.UseBFS = true
	return place.NewCloudQC(cfg)
}

// NewRandomPlacer returns the random-search placement baseline.
func NewRandomPlacer(seed int64) Placer { return place.NewRandom(seed) }

// NewAnnealerPlacer returns the simulated-annealing baseline
// (Mao et al., INFOCOM 2023).
func NewAnnealerPlacer(seed int64) Placer { return place.NewAnnealer(seed) }

// NewGeneticPlacer returns the genetic-algorithm baseline.
func NewGeneticPlacer(seed int64) Placer { return place.NewGenetic(seed) }

// Scheduling policies of the evaluation (Sec. VI-C).
func PolicyCloudQC() Policy { return sched.CloudQCPolicy{} }

// PolicyGreedy always gives the top-priority gate everything first.
func PolicyGreedy() Policy { return sched.GreedyPolicy{} }

// PolicyAverage splits communication qubits evenly.
func PolicyAverage() Policy { return sched.AveragePolicy{} }

// PolicyRandom hands out pairs to uniformly random ready gates.
func PolicyRandom() Policy { return sched.RandomPolicy{} }

// PolicyTenantWeighted splits each round's communication-qubit budget
// across tenants in proportion to their weights (Job.Priority) before
// falling back to CloudQC's per-gate priority order, bounding
// cross-tenant starvation at the EPR-allocation layer.
func PolicyTenantWeighted() Policy { return sched.NewTenantWeightedPolicy() }

// ParseAdmissionMode maps a mode name — "batch", "fifo", "edf", or
// "wfq" (empty means batch) — to the Cluster admission mode.
func ParseAdmissionMode(s string) (AdmissionMode, error) { return core.ParseMode(s) }

// CommCost is the paper's placement objective Σ D_ij·C_π(i)π(j).
func CommCost(c *Circuit, cl *Cloud, qubitToQPU []int) float64 {
	return place.CommCost(c, cl, qubitToQPU)
}

// RemoteOps counts two-qubit gates crossing QPUs under an assignment
// (the Table III metric).
func RemoteOps(c *Circuit, qubitToQPU []int) int {
	return place.RemoteOps(c, qubitToQPU)
}

// BuildRemoteDAG contracts a placed circuit to its remote DAG (Fig. 3).
func BuildRemoteDAG(c *Circuit, cl *Cloud, qubitToQPU []int, lat Latency) *RemoteDAG {
	return sched.BuildRemoteDAG(c, cl, qubitToQPU, lat)
}

// Schedule simulates one placed job's remote DAG to completion under the
// given policy (Algorithm 3) and returns its completion time statistics.
func Schedule(dag *RemoteDAG, cl *Cloud, m Model, p Policy, seed int64) (ScheduleResult, error) {
	return sched.Run(dag, cl, m, p, rand.New(rand.NewSource(seed)))
}

// PipelineResult is the outcome of the single-job convenience pipeline.
type PipelineResult struct {
	// Placement is the CloudQC placement used.
	Placement *Placement
	// RemoteGates is the remote DAG size it induced.
	RemoteGates int
	// CommCost is Σ D_ij·C_ij for the placement.
	CommCost float64
	// JCT is the simulated job completion time in CX units.
	JCT float64
}

// PlaceAndSchedule runs the full CloudQC pipeline for one circuit:
// placement (Algorithm 1/2), remote DAG construction, and network
// scheduling (Algorithm 3) with the CloudQC policy.
func PlaceAndSchedule(cl *Cloud, c *Circuit, m Model, seed int64) (*PipelineResult, error) {
	cfg := place.DefaultConfig()
	cfg.Model = m
	cfg.Seed = seed
	pl, err := place.NewCloudQC(cfg).Place(cl, c)
	if err != nil {
		return nil, err
	}
	dag := sched.BuildRemoteDAG(c, cl, pl.QubitToQPU, m.Latency)
	res, err := sched.Run(dag, cl, m, sched.CloudQCPolicy{}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return &PipelineResult{
		Placement:   pl,
		RemoteGates: dag.Len(),
		CommCost:    place.CommCost(c, cl, pl.QubitToQPU),
		JCT:         res.JCT,
	}, nil
}

// ScheduleMultipath is Schedule with congestion-aware entanglement
// routing over up to k alternative QPU paths per remote gate.
func ScheduleMultipath(dag *RemoteDAG, cl *Cloud, m Model, p Policy, seed int64, k int) (ScheduleResult, error) {
	return sched.RunMultipath(dag, cl, m, p, rand.New(rand.NewSource(seed)), k)
}

// DefaultFidelityModel returns the fidelity-aware EPR model: Table I
// latencies, success probability 0.3, 0.97 link fidelity, 0.9 threshold.
func DefaultFidelityModel() FidelityModel { return epr.DefaultFidelityModel() }

// ScheduleWithFidelity is Schedule under a link-fidelity constraint:
// remote gates purify their entanglement (BBPSSW rounds) until the
// end-to-end fidelity clears the model's threshold.
func ScheduleWithFidelity(dag *RemoteDAG, cl *Cloud, f FidelityModel, p Policy, seed int64) (ScheduleResult, error) {
	return sched.RunFidelity(dag, cl, f, p, rand.New(rand.NewSource(seed)))
}

// BuildMigratingDAG is BuildRemoteDAG with teleportation: qubits opening
// a burst of same-pair remote gates migrate to the partner QPU (one EPR
// for the move, the burst turns local). Returns the plan and migration
// statistics; pass the result to Schedule like any remote DAG.
func BuildMigratingDAG(c *Circuit, cl *Cloud, qubitToQPU []int, lat Latency) (*RemoteDAG, *MigrationStats) {
	return sched.BuildMigratingDAG(c, cl, qubitToQPU, lat)
}

// Simulate executes a small circuit (<= 20 qubits) on a dense
// state-vector simulator, returning the final state and per-qubit
// measurement outcomes (-1 for unmeasured qubits).
func Simulate(c *Circuit, seed int64) (*QuantumState, []int) { return simq.Run(c, seed) }

// NewUtilizationRecorder returns a recorder keeping one sample per
// `every` time units; attach it to ClusterConfig.Recorder.
func NewUtilizationRecorder(every float64) *UtilizationRecorder {
	return metrics.NewRecorder(every)
}

// NewCluster builds the multi-tenant controller with its virtual clock
// at 0 and no jobs. Zero-valued Config fields get the paper's defaults
// (CloudQC placement + CloudQC policy, Table I model, batch mode). The
// cluster runs once: Run a whole workload, or Submit jobs at their
// arrival times between StepUntil calls and Drain — the two are
// bit-identical.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return core.NewLiveController(cfg) }

// NewJobService serves cfg.Federation (a single cloud is a 1-shard
// federation) through the HTTP JSON submission service: POST /v1/jobs,
// GET /v1/jobs/{id}, GET /v1/stats, GET /v1/cluster, with per-tenant
// token-bucket rate limiting and in-flight quotas (429 + Retry-After)
// and a virtual-time pacer mapping wall time onto EPR rounds. The returned service implements
// http.Handler; call its Drain method on shutdown. For a standalone
// daemon, see cmd/cloudqcd.
func NewJobService(cfg ServiceConfig) (*JobService, error) { return service.New(cfg) }

// NewFederation builds the federated controller tier: one shard
// controller per cloud in cfg.Clouds behind a global admission router.
// In WFQ mode all shards bill tenants into one shared virtual-clock
// space, so weighted fairness holds federation-wide; with one cloud
// the federation is bit-identical to NewCluster. Everything —
// plan-cache size included — is fixed here, at construction. Pass the
// result to NewJobService via ServiceConfig.Federation (the only way
// to serve a live cloud), or drive it directly with Submit / StepUntil
// / Drain.
func NewFederation(cfg FederationConfig) (*Federation, error) { return fed.New(cfg) }

// PartitionClouds splits one topology into n connected shard clouds of
// balanced capacity (k-way graph partition, imbalance tolerance e.g.
// 0.1), for federations that shard a single physical cloud rather than
// spanning n separate ones.
func PartitionClouds(topo *Topology, n, computing, comm int, imbalance float64, seed int64) ([]*Cloud, error) {
	return fed.PartitionClouds(topo, n, computing, comm, imbalance, seed)
}

// ParseRoutingMode maps a routing name — "affinity" or "random" (empty
// means affinity) — to the federation admission routing.
func ParseRoutingMode(s string) (RoutingMode, error) { return fed.ParseRouting(s) }

// NewTraceRecorder returns an empty virtual-time span recorder; attach
// it to ClusterConfig.Trace (one controller) or FederationConfig.Trace
// (shared across every shard, so traces survive cross-shard rehomes).
func NewTraceRecorder() *TraceRecorder { return trace.New() }

// NewWFQClock returns a fresh shared WFQ virtual-clock space; hand it
// to several controllers via ClusterConfig.SharedWFQ to extend
// weighted fairness across them (a Federation does this itself).
func NewWFQClock() *WFQClock { return core.NewWFQClock() }

// ShardSeed derives the per-shard controller seed a Federation uses
// from its base seed — exported so external shards can reproduce a
// federation's RNG streams.
func ShardSeed(seed int64, shard int) int64 { return fed.ShardSeed(seed, shard) }

// Intensity is the batch manager's job-ordering metric (Eq. 11) with
// equal weights.
func Intensity(c *Circuit) float64 { return core.Intensity(c) }

// DefaultPlanCacheSize is the compile-once plan cache's default LRU
// capacity, used when ClusterConfig.PlanCacheSize is zero.
const DefaultPlanCacheSize = plan.DefaultCapacity

// Fingerprint returns a circuit's structural fingerprint — the
// plan-cache identity under which identical templates share compile
// artifacts (placement, remote DAG) regardless of job identity.
func Fingerprint(c *Circuit) CircuitFingerprint { return c.Fingerprint() }

// Workloads returns the paper's four multi-tenant workload suites
// (Mixed, QFT, Qugan, Arithmetic).
func Workloads() []Workload { return workload.All() }

// OnlineJobs samples an online ("incoming jobs") stream from a
// workload: size jobs whose arrival times follow the named process —
// "poisson" (exponential gaps), "uniform" (constant rate), or "bursty"
// (synchronized groups) — at the given mean inter-arrival time in CX
// units. Submit the result to a Cluster to simulate the online setting.
func OnlineJobs(w Workload, process string, size int, meanInterarrival float64, seed int64) ([]*Job, error) {
	return w.Arrivals(process, size, meanInterarrival, seed)
}

// AggregateOnline summarizes an online run's completed-job JCTs and
// wait times, failed-job count, and makespan into throughput and
// percentile statistics.
func AggregateOnline(jcts, waits []float64, failed int, makespan float64) OnlineStats {
	return metrics.AggregateOnline(jcts, waits, failed, makespan)
}

// MultiTenantJobs samples one merged job stream from heterogeneous
// tenant specs: per-tenant circuit pools, arrival processes, weights,
// and deadline distributions (deadline = arrival + circuit depth ×
// slack). Submit the result to a Cluster in EDFMode or WFQMode — or any
// other mode — and summarize with Outcomes + AggregateSLO.
func MultiTenantJobs(specs []TenantSpec, seed int64) ([]*Job, error) {
	return workload.MultiTenant(specs, seed)
}

// DefaultTenantMix builds the three-tenant mix the SLO experiments use
// over one workload: priorities 1, 2, and 4, identical arrival
// processes, and the default deadline slack range.
func DefaultTenantMix(w Workload, perTenant int, process string, meanInterarrival float64) []TenantSpec {
	return workload.DefaultTenantMix(w, perTenant, process, meanInterarrival)
}

// Outcomes converts a run's results into the plain job outcomes
// AggregateSLO consumes.
func Outcomes(results []*JobResult) []JobOutcome { return core.Outcomes(results) }

// AggregateSLO summarizes tenant- and deadline-aware outcomes: SLO
// attainment, Jain's fairness index over per-tenant mean JCTs, and
// per-tenant breakdowns.
func AggregateSLO(outcomes []JobOutcome) SLOStats { return metrics.AggregateSLO(outcomes) }

// MixedWorkload returns the mixed multi-tenant workload of Fig. 14.
func MixedWorkload() Workload { return workload.Mixed() }

// RandomTopology exposes the connected Erdős–Rényi generator used for
// cloud topologies, for callers assembling clouds by hand with NewCloud.
func RandomTopology(n int, p float64, seed int64) *Topology {
	return graph.Random(n, p, seed)
}

// NewCloud builds a cloud over an explicit topology where every QPU has
// the same computing and communication qubit counts.
func NewCloud(topo *Topology, computing, comm int) *Cloud {
	return cloud.New(topo, computing, comm)
}
