package exp

import (
	"fmt"

	"cloudqc/internal/core"
	"cloudqc/internal/fault"
	"cloudqc/internal/metrics"
	"cloudqc/internal/stats"
	"cloudqc/internal/workload"
)

// faultArm is one line of the faults figure: a recovery configuration
// run against an identical fault schedule. The schedule — QPU outages
// plus two dead-link windows — is held fixed across arms, so a cell
// difference isolates the recovery policy, never the faults themselves.
type faultArm struct {
	name     string
	recovery string
	reroute  bool
}

// faultArms are the figure's three arms: fail evicted jobs outright
// (the no-recovery baseline), checkpoint-rescue, and rescue plus
// dead-edge route-around.
func faultArms() []faultArm {
	return []faultArm{
		{"None", fault.RecoveryNone, false},
		{"Rescue", fault.RecoveryRescue, false},
		{"Rescue+Reroute", fault.RecoveryRescue, true},
	}
}

// FaultRow is one (workload × outage rate × recovery arm) cell: SLO
// attainment and fairness, stream statistics (the p99 JCT axis), and
// the injector counters that explain them.
type FaultRow struct {
	Workload string
	// Outages is the failure-rate axis: QPU outages injected over the
	// stream's arrival horizon.
	Outages int
	Policy  string
	SLO     metrics.SLOStats
	Stream  metrics.OnlineStats
	Faults  fault.Stats
}

// faultOutageDuration is each injected outage's length in CX units —
// long enough that jobs resident on the downed QPU are genuinely
// interrupted, short enough that capacity recovers between outages.
const faultOutageDuration = 4000

// Faults traces SLO attainment and p99 JCT against the QPU-failure
// rate for no-recovery vs checkpoint-rescue vs rescue+route-around:
// each cell runs the three-tenant deadline mix under EDF admission
// against a deterministic fault schedule of n QPU outages (spread over
// the arrival horizon by fault.OutageSchedule) plus two dead-link
// windows, varying only the recovery knobs. Under no-recovery every
// eviction is a failed job; checkpoint-rescue re-enqueues them — the
// strict attainment win TestRescueImprovesFaultAttainment pins — and
// route-around additionally saves jobs whose entanglement paths cross
// the dead links from burning their retry budgets.
//
// Seeding follows the package convention: the per-task seed depends on
// (workload, rep) only, so every rate and every arm replays identical
// tenant mixes against identical fault schedules.
func Faults(o Options, process string, perTenant int, rates []int) ([]FaultRow, error) {
	o = o.withDefaults()
	perTenant, err := tenantStreamSize(perTenant)
	if err != nil {
		return nil, err
	}
	if len(rates) == 0 {
		rates = []int{2, 6, 12}
	}
	const interarrival = 1000.0
	// The outage window covers the arrival span plus an execution tail.
	horizon := float64(float64(perTenant)*interarrival) * 2
	// Every outage rate replays the same stream; only the plan differs.
	interarrivals := make([]float64, len(rates))
	for i := range interarrivals {
		interarrivals[i] = interarrival
	}
	workloads := workload.All()
	arms := faultArms()
	cells, err := runTenants(o, workloads, process, perTenant, interarrivals, len(arms),
		func(c cell, cfg *core.Config) {
			plan := fault.OutageSchedule(o.QPUs, rates[c.x], 0, horizon, faultOutageDuration, cfg.Seed)
			if plan == nil {
				plan = &fault.Plan{}
			}
			// Two dead-link windows on real topology edges, identical
			// across arms: only the route-around arm can path around them.
			if edges := cfg.Cloud.Topology().Edges(); len(edges) > 0 {
				for li, at := range []float64{horizon * 0.25, horizon * 0.55} {
					e := edges[li*(len(edges)/2)%len(edges)]
					plan.Events = append(plan.Events, fault.Event{
						Kind: fault.KindLinkDegrade, U: e.U, V: e.V,
						Scale: 0, From: at, To: at + float64(horizon*0.15),
					})
				}
			}
			plan.Recovery = arms[c.arm].recovery
			plan.RouteAround = arms[c.arm].reroute
			cfg.Mode = core.EDFMode
			cfg.Faults = plan
		})
	if err != nil {
		return nil, err
	}
	rows := make([]FaultRow, len(cells))
	for i, r := range cells {
		rows[i] = FaultRow{
			Workload: workloads[r.w].Name,
			Outages:  rates[r.x],
			Policy:   arms[r.arm].name,
			SLO:      metrics.AggregateSLO(r.outcomes),
			Stream:   r.online(),
			Faults:   r.faults,
		}
	}
	return rows, nil
}

// RenderFaults renders fault rows grouped by workload and outage rate:
// attainment and p99 JCT are the figure's two y-axes, the injector
// counters its annotations.
func RenderFaults(rows []FaultRow) string {
	headers := []string{"Workload", "Outages", "Recovery", "Done", "Fail",
		"Attain", "Jain", "MeanJCT", "P99JCT", "Rescued", "FailedOut", "Retries", "Reroutes", "Exhausted"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Workload,
			fmt.Sprintf("%d", r.Outages),
			r.Policy,
			fmt.Sprintf("%d", r.Stream.Completed),
			fmt.Sprintf("%d", r.Stream.Failed),
			fmtFrac(r.SLO.Attainment),
			fmtFrac(r.SLO.Fairness),
			stats.F(r.Stream.MeanJCT),
			stats.F(r.Stream.P99JCT),
			fmt.Sprintf("%d", r.Faults.RescuedOutage),
			fmt.Sprintf("%d", r.Faults.FailedOutage),
			fmt.Sprintf("%d", r.Faults.Retries),
			fmt.Sprintf("%d", r.Faults.Reroutes),
			fmt.Sprintf("%d", r.Faults.RetryExhausted),
		})
	}
	return stats.Table(headers, out)
}
