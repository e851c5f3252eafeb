package exp

import (
	"fmt"

	"cloudqc/internal/core"
	"cloudqc/internal/metrics"
	"cloudqc/internal/stats"
	"cloudqc/internal/workload"
)

// preemptArm is one line of the preemption figure: a preemption policy
// layered under EDF admission. Admission is held fixed across arms so a
// cell difference isolates preemption itself, not the queue order.
type preemptArm struct {
	name   string
	policy core.PreemptPolicy
}

// preemptArms are the figure's three arms: run-to-completion (the
// pre-preemption controller), deadline rescue, and priority preemption.
func preemptArms() []preemptArm {
	return []preemptArm{
		{"Off", core.PreemptOff},
		{"Rescue", core.PreemptRescue},
		{"Priority", core.PreemptPriority},
	}
}

// PreemptRow is one (workload × arrival rate × preemption policy) cell:
// SLO attainment and fairness, stream statistics (the p99 JCT axis of
// the figure), and the preemption counters that explain them.
type PreemptRow struct {
	Workload         string
	MeanInterarrival float64
	Policy           string
	SLO              metrics.SLOStats
	Stream           metrics.OnlineStats
	Preempt          core.PreemptStats
}

// Preemption traces SLO attainment and p99 JCT against load for
// preemption off/rescue/priority: each cell runs the three-tenant mix
// (weights 1/2/4, deadlines from circuit depth × slack) under EDF
// admission, varying only the preemption policy. At high load the
// rescue arm's checkpoint-and-displace recovers deadlines a
// run-to-completion controller must miss — the figure the tentpole's
// acceptance criterion pins (see TestRescueImprovesAttainment).
//
// Seeding follows the package convention: the per-task seed depends on
// (workload, rep) only, so every load level and every policy replays
// identical tenant mixes.
func Preemption(o Options, process string, perTenant int, interarrivals []float64) ([]PreemptRow, error) {
	o = o.withDefaults()
	perTenant, err := tenantStreamSize(perTenant)
	if err != nil {
		return nil, err
	}
	if len(interarrivals) == 0 {
		interarrivals = []float64{300, 1000, 4000}
	}
	workloads := workload.All()
	arms := preemptArms()
	cells, err := runTenants(o, workloads, process, perTenant, interarrivals, len(arms),
		func(c cell, cfg *core.Config) {
			cfg.Mode = core.EDFMode
			cfg.Preempt = arms[c.arm].policy
		})
	if err != nil {
		return nil, err
	}
	rows := make([]PreemptRow, len(cells))
	for i, r := range cells {
		rows[i] = PreemptRow{
			Workload:         workloads[r.w].Name,
			MeanInterarrival: interarrivals[r.x],
			Policy:           arms[r.arm].name,
			SLO:              metrics.AggregateSLO(r.outcomes),
			Stream:           r.online(),
			Preempt:          r.preempt,
		}
	}
	return rows, nil
}

// RenderPreemption renders preemption rows grouped by workload and
// arrival rate: the attainment and p99 JCT columns are the figure's two
// y-axes, the counter columns its annotations.
func RenderPreemption(rows []PreemptRow) string {
	headers := []string{"Workload", "Interarrival", "Preempt", "Done", "Fail",
		"Attain", "Jain", "MeanJCT", "P99JCT", "Preempted", "Resumed", "Rescued"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Workload,
			stats.F(r.MeanInterarrival),
			r.Policy,
			fmt.Sprintf("%d", r.Stream.Completed),
			fmt.Sprintf("%d", r.Stream.Failed),
			fmtFrac(r.SLO.Attainment),
			fmtFrac(r.SLO.Fairness),
			stats.F(r.Stream.MeanJCT),
			stats.F(r.Stream.P99JCT),
			fmt.Sprintf("%d", r.Preempt.Preemptions),
			fmt.Sprintf("%d", r.Preempt.Resumes),
			fmt.Sprintf("%d", r.Preempt.RescuedDeadlines),
		})
	}
	return stats.Table(headers, out)
}
