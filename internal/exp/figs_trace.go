package exp

import (
	"fmt"

	"cloudqc/internal/core"
	"cloudqc/internal/stats"
	"cloudqc/internal/trace"
	"cloudqc/internal/workload"
)

// attrModes are the attribution figure's arms: the admission modes
// whose queueing disciplines shape where a job's completion time goes.
func attrModes() []core.Mode {
	return []core.Mode{core.FIFOMode, core.EDFMode, core.WFQMode}
}

// AttributionRow is one (workload × arrival rate × admission mode)
// cell: completion counts and the exact per-phase JCT attribution
// summed over every settled job — the time-breakdown-vs-load figure
// only the virtual-time tracer can draw, because its phases sum to the
// JCT bitwise rather than being sampled.
type AttributionRow struct {
	Workload         string
	MeanInterarrival float64
	Mode             string
	Completed        int
	Failed           int
	// Attr is the summed attribution across the cell's settled jobs
	// (queue + compile + local + network + suspended == JCT holds for
	// the sums exactly as it does per job).
	Attr trace.Attribution
}

// Attribution traces where completion time goes — queue wait, network
// stall, local compute, suspension — against load for each admission
// mode: every cell runs the three-tenant mix under one mode with a
// fresh span recorder and sums the per-job attributions. As the
// interarrival gap shrinks, the queue fraction's growth curve separates
// the modes; the network fraction stays a property of the placements.
//
// Seeding follows the package convention: the per-task seed depends on
// (workload, rep) only, so every load level and every mode replays
// identical tenant mixes.
func Attribution(o Options, process string, perTenant int, interarrivals []float64) ([]AttributionRow, error) {
	o = o.withDefaults()
	perTenant, err := tenantStreamSize(perTenant)
	if err != nil {
		return nil, err
	}
	if len(interarrivals) == 0 {
		interarrivals = []float64{300, 1000, 4000}
	}
	workloads := workload.All()
	modes := attrModes()
	cells, err := runTenants(o, workloads, process, perTenant, interarrivals, len(modes),
		func(c cell, cfg *core.Config) {
			cfg.Mode = modes[c.arm]
			cfg.Trace = trace.New()
		})
	if err != nil {
		return nil, err
	}
	rows := make([]AttributionRow, len(cells))
	for i, r := range cells {
		a := r.attr
		rows[i] = AttributionRow{
			Workload:         workloads[r.w].Name,
			MeanInterarrival: interarrivals[r.x],
			Mode:             modes[r.arm].String(),
			Completed:        a.Completed,
			Failed:           a.Failed,
			Attr: trace.Attribution{JCT: a.JCT, Queue: a.Queue, Compile: a.Compile,
				Local: a.Local, Network: a.Network, Suspended: a.Suspended},
		}
	}
	return rows, nil
}

// RenderAttribution renders attribution rows as the time-breakdown
// figure: mean JCT per completed job and each phase's fraction of the
// summed completion time.
func RenderAttribution(rows []AttributionRow) string {
	headers := []string{"Workload", "Interarrival", "Mode", "Done", "Fail",
		"MeanJCT", "Queue", "Network", "Local", "Suspended"}
	var out [][]string
	for _, r := range rows {
		mean := 0.0
		if r.Completed > 0 {
			mean = r.Attr.JCT / float64(r.Completed)
		}
		out = append(out, []string{
			r.Workload,
			stats.F(r.MeanInterarrival),
			r.Mode,
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.Failed),
			stats.F(mean),
			fmtShare(r.Attr.Queue, r.Attr.JCT),
			fmtShare(r.Attr.Network, r.Attr.JCT),
			fmtShare(r.Attr.Local, r.Attr.JCT),
			fmtShare(r.Attr.Suspended, r.Attr.JCT),
		})
	}
	return stats.Table(headers, out)
}

// fmtShare renders phase/total as a percentage, dashing out an empty
// cell and clamping the floating-point dust the derived local phase
// may carry below zero.
func fmtShare(phase, total float64) string {
	if total <= 0 {
		return "-"
	}
	f := phase / total
	if f < 0 {
		f = 0
	}
	return fmt.Sprintf("%.1f%%", f*100)
}
