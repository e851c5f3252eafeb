package exp

import (
	"fmt"
	"math"

	"cloudqc/internal/core"
	"cloudqc/internal/metrics"
	"cloudqc/internal/sched"
	"cloudqc/internal/stats"
	"cloudqc/internal/workload"
)

// sloMethod is one line of the SLO figure: an admission mode paired
// with an EPR allocation policy factory. Policies are built per task —
// the tenant-weighted allocator carries reusable scratch, so parallel
// tasks must not share one instance.
type sloMethod struct {
	name   string
	mode   core.Mode
	policy func() sched.Policy
}

// sloMethods are the figure's schedulers: the two CloudQC baselines,
// the two deadline/tenant-aware admission modes, and WFQ admission
// combined with the tenant-weighted EPR allocator (starvation bounded
// at both layers).
func sloMethods() []sloMethod {
	cloudqc := func() sched.Policy { return sched.CloudQCPolicy{} }
	return []sloMethod{
		{"Batch", core.BatchMode, cloudqc},
		{"FIFO", core.FIFOMode, cloudqc},
		{"EDF", core.EDFMode, cloudqc},
		{"WFQ", core.WFQMode, cloudqc},
		{"WFQ+TW", core.WFQMode, func() sched.Policy { return sched.NewTenantWeightedPolicy() }},
	}
}

// SLORow is one (workload × arrival rate × scheduler) cell of the SLO
// figure: deadline attainment, cross-tenant fairness, and job-stream
// statistics for a three-tenant mix (priorities 1/2/4) under the given
// scheduler.
type SLORow struct {
	Workload         string
	MeanInterarrival float64
	Method           string
	// SLO aggregates deadline attainment, Jain fairness over per-tenant
	// mean JCTs, and per-tenant breakdowns across all reps.
	SLO metrics.SLOStats
	// Stream summarizes throughput/JCT/wait like the online figure.
	Stream metrics.OnlineStats
}

// SLO evaluates tenant- and deadline-aware scheduling across the four
// evaluation workloads: each cell runs a three-tenant mix (weights 1, 2,
// and 4, per-tenant arrival processes, deadlines drawn from circuit
// depth × slack) under Batch, FIFO, EDF, WFQ, and WFQ with the
// tenant-weighted EPR allocator, reporting SLO attainment, Jain's
// fairness index over per-tenant mean JCTs, and the usual job-stream
// statistics. Sweeping interarrivals traces attainment and fairness vs
// load.
//
// Tasks fan out to the experiment worker pool. Seeding follows the
// package convention: the per-task seed depends on (workload, rep)
// only, so every arrival rate and every scheduler faces the same tenant
// mixes and the sweep isolates load and scheduling discipline.
func SLO(o Options, process string, perTenant int, interarrivals []float64) ([]SLORow, error) {
	o = o.withDefaults()
	perTenant, err := tenantStreamSize(perTenant)
	if err != nil {
		return nil, err
	}
	if len(interarrivals) == 0 {
		interarrivals = []float64{500, 2000, 8000}
	}
	workloads := workload.All()
	methods := sloMethods()
	cells, err := runTenants(o, workloads, process, perTenant, interarrivals, len(methods),
		func(c cell, cfg *core.Config) {
			cfg.Policy = methods[c.arm].policy()
			cfg.Mode = methods[c.arm].mode
		})
	if err != nil {
		return nil, err
	}
	rows := make([]SLORow, len(cells))
	for i, r := range cells {
		rows[i] = SLORow{
			Workload:         workloads[r.w].Name,
			MeanInterarrival: interarrivals[r.x],
			Method:           methods[r.arm].name,
			SLO:              metrics.AggregateSLO(r.outcomes),
			Stream:           r.online(),
		}
	}
	return rows, nil
}

// RenderSLO renders SLO rows grouped by workload and arrival rate.
func RenderSLO(rows []SLORow) string {
	headers := []string{"Workload", "Interarrival", "Scheduler", "Done", "Fail",
		"Attain", "Jain", "MeanJCT", "P99JCT", "MeanWait"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Workload,
			stats.F(r.MeanInterarrival),
			r.Method,
			fmt.Sprintf("%d", r.Stream.Completed),
			fmt.Sprintf("%d", r.Stream.Failed),
			fmtFrac(r.SLO.Attainment),
			fmtFrac(r.SLO.Fairness),
			stats.F(r.Stream.MeanJCT),
			stats.F(r.Stream.P99JCT),
			stats.F(r.Stream.MeanWait),
		})
	}
	return stats.Table(headers, out)
}

// fmtFrac renders a [0,1] statistic with two decimals, and the
// undefined (NaN) case — no deadline-carrying jobs, no completed
// tenants — as "-".
func fmtFrac(x float64) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf("%.2f", x)
}
