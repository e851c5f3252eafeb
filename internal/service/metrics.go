package service

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"time"
)

// metricFamily is one /metrics series: its name, Prometheus type, and
// one-line meaning. The table drives the exposition's HELP/TYPE headers
// and is cross-checked against docs/OPERATIONS.md's metrics reference
// by TestMetricsEndpoint, so the operator doc cannot drift from what
// the daemon actually serves.
type metricFamily struct {
	name, typ, help string
}

// metricFamilies lists every exposed series, in exposition order.
var metricFamilies = []metricFamily{
	{"cloudqcd_virtual_time_cx", "gauge", "Current virtual time in CX units."},
	{"cloudqcd_rounds_total", "counter", "Scheduling rounds executed across all shards."},
	{"cloudqcd_events_total", "counter", "Discrete events handled across all shards."},
	{"cloudqcd_utilization", "gauge", "Capacity-weighted fraction of computing qubits reserved."},
	{"cloudqcd_backlog", "gauge", "Jobs waiting for service (pending + queued), all shards."},
	{"cloudqcd_queue_depth", "gauge", "Jobs waiting for service on one shard (label: shard)."},
	{"cloudqcd_jobs_submitted_total", "counter", "Accepted submissions."},
	{"cloudqcd_jobs_settled_total", "counter", "Jobs settled (completed + failed)."},
	{"cloudqcd_jobs_completed_total", "counter", "Jobs completed."},
	{"cloudqcd_jobs_failed_total", "counter", "Jobs failed."},
	{"cloudqcd_jobs_rejected_total", "counter", "429-rejected submissions (labels: tenant, reason=rate|quota)."},
	{"cloudqcd_jobs_shed_total", "counter", "503-shed submissions past the shedding watermark (label: tenant)."},
	{"cloudqcd_tenant_inflight", "gauge", "Unsettled jobs per tenant (label: tenant)."},
	{"cloudqcd_admission_degraded", "gauge", "1 while admission is degraded to FIFO by the backlog watermark."},
	{"cloudqcd_plan_cache_hits_total", "counter", "Plan-cache hits, summed across shards."},
	{"cloudqcd_plan_cache_misses_total", "counter", "Plan-cache misses, summed across shards."},
	{"cloudqcd_plan_cache_infeasible_hits_total", "counter", "Plan-cache misses answered by a remembered infeasible verdict instead of a placer run, summed across shards."},
	{"cloudqcd_plan_cache_evictions_total", "counter", "Plan-cache LRU evictions, summed across shards."},
	{"cloudqcd_plan_cache_size", "gauge", "Plan-cache entries resident, summed across shards."},
	{"cloudqcd_plan_cache_capacity", "gauge", "Plan-cache capacity bound, summed across shards."},
	{"cloudqcd_preemptions_total", "counter", "Jobs checkpointed off the cloud by preemption."},
	{"cloudqcd_resumes_total", "counter", "Preempted jobs resumed onto a fresh placement."},
	{"cloudqcd_rescued_deadlines_total", "counter", "Preemption-triggering jobs that then met their deadline."},
	{"cloudqcd_router_decisions_total", "counter", "Admission-router decisions (label: kind=affinity|spill|cold|random)."},
	{"cloudqcd_faults_injected_total", "counter", "Faults fired by the injector (label: kind=qpu_outage|link_degrade|shard_drain)."},
	{"cloudqcd_jobs_rescued_total", "counter", "Jobs checkpointed off a failed resource and re-enqueued (label: cause=qpu_outage|shard_drain)."},
	{"cloudqcd_fault_retries_total", "counter", "Remote-gate rounds that failed across degraded links."},
	{"cloudqcd_fault_reroutes_total", "counter", "Dead-edge route-arounds applied to running jobs."},
	{"cloudqcd_fault_retry_exhausted_total", "counter", "Jobs failed after exhausting their degraded-link retry budget."},
	{"cloudqcd_events_dropped_total", "counter", "SSE events overwritten by the full event ring before any client read them."},
	{"cloudqcd_trace_jobs_total", "counter", "Job traces held by the span recorder (0 while tracing is off)."},
	{"cloudqcd_jct_attribution_cx_total", "counter", "Settled virtual time per phase, CX units (labels: tenant, phase=queue|compile|local|network|suspended)."},
	{"cloudqcd_wal_enabled", "gauge", "1 when a write-ahead log is attached."},
	{"cloudqcd_wal_records_total", "counter", "WAL records appended since open."},
	{"cloudqcd_wal_bytes_total", "counter", "WAL bytes appended since open."},
	{"cloudqcd_wal_fsyncs_total", "counter", "WAL fsyncs issued (one per accepted submission)."},
	{"cloudqcd_wal_fsync_seconds_total", "counter", "Total WAL fsync latency in seconds (divide by fsyncs for the mean)."},
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (version 0.0.4), hand-rolled: the repo takes no client-library
// dependency for what is a few fmt.Fprintf calls.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := s.locked(func(time.Time) error { s.renderMetrics(&buf); return nil }); err != nil {
		reply(w, 0, nil, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// renderMetrics writes the full exposition; handleMetrics calls it
// inside locked.
func (s *Server) renderMetrics(buf *bytes.Buffer) {
	snap := s.f.Snapshot()
	shardSnaps := s.f.ShardSnapshots()
	pc := s.f.PlanCacheStats()
	pre := s.f.PreemptStats()
	rt := s.f.RouterStats()

	emit := func(name string, sample func()) {
		fam := familyNamed(name)
		fmt.Fprintf(buf, "# HELP %s %s\n# TYPE %s %s\n", fam.name, fam.help, fam.name, fam.typ)
		sample()
	}
	plain := func(name string, v float64) {
		emit(name, func() { fmt.Fprintf(buf, "%s %s\n", name, fmtFloat(v)) })
	}

	plain("cloudqcd_virtual_time_cx", s.f.Now())
	plain("cloudqcd_rounds_total", float64(snap.Rounds))
	plain("cloudqcd_events_total", float64(snap.Events))
	plain("cloudqcd_utilization", snap.Utilization)
	plain("cloudqcd_backlog", float64(snap.Pending+snap.Queued))
	emit("cloudqcd_queue_depth", func() {
		for i, sh := range shardSnaps {
			fmt.Fprintf(buf, "cloudqcd_queue_depth{shard=\"%d\"} %d\n", i, sh.Pending+sh.Queued)
		}
	})
	plain("cloudqcd_jobs_submitted_total", float64(s.submitted))
	plain("cloudqcd_jobs_settled_total", float64(len(s.settled)))
	plain("cloudqcd_jobs_completed_total", float64(snap.Completed))
	plain("cloudqcd_jobs_failed_total", float64(snap.Failed))
	emit("cloudqcd_jobs_rejected_total", func() {
		for _, t := range sortedKeys(s.rejRate) {
			fmt.Fprintf(buf, "cloudqcd_jobs_rejected_total{tenant=\"%d\",reason=\"rate\"} %d\n", t, s.rejRate[t])
		}
		for _, t := range sortedKeys(s.rejQuota) {
			fmt.Fprintf(buf, "cloudqcd_jobs_rejected_total{tenant=\"%d\",reason=\"quota\"} %d\n", t, s.rejQuota[t])
		}
	})
	emit("cloudqcd_jobs_shed_total", func() {
		for _, t := range sortedKeys(s.shed) {
			fmt.Fprintf(buf, "cloudqcd_jobs_shed_total{tenant=\"%d\"} %d\n", t, s.shed[t])
		}
	})
	emit("cloudqcd_tenant_inflight", func() {
		for _, t := range sortedKeys(s.inflight) {
			fmt.Fprintf(buf, "cloudqcd_tenant_inflight{tenant=\"%d\"} %d\n", t, s.inflight[t])
		}
	})
	degraded := 0.0
	if s.degraded {
		degraded = 1
	}
	plain("cloudqcd_admission_degraded", degraded)
	plain("cloudqcd_plan_cache_hits_total", float64(pc.Hits))
	plain("cloudqcd_plan_cache_misses_total", float64(pc.Misses))
	plain("cloudqcd_plan_cache_infeasible_hits_total", float64(s.f.InfeasibleHits()))
	plain("cloudqcd_plan_cache_evictions_total", float64(pc.Evictions))
	plain("cloudqcd_plan_cache_size", float64(pc.Size))
	plain("cloudqcd_plan_cache_capacity", float64(pc.Capacity))
	plain("cloudqcd_preemptions_total", float64(pre.Preemptions))
	plain("cloudqcd_resumes_total", float64(pre.Resumes))
	plain("cloudqcd_rescued_deadlines_total", float64(pre.RescuedDeadlines))
	emit("cloudqcd_router_decisions_total", func() {
		for _, kv := range []struct {
			kind string
			n    int64
		}{{"affinity", rt.AffinityHits}, {"spill", rt.Spills}, {"cold", rt.Cold}, {"random", rt.Random}} {
			fmt.Fprintf(buf, "cloudqcd_router_decisions_total{kind=%q} %d\n", kv.kind, kv.n)
		}
	})
	fs := s.f.FaultStats()
	emit("cloudqcd_faults_injected_total", func() {
		for _, kv := range []struct {
			kind string
			n    int64
		}{{"qpu_outage", fs.QPUOutages}, {"link_degrade", fs.LinkDegrades}, {"shard_drain", fs.ShardDrains}} {
			fmt.Fprintf(buf, "cloudqcd_faults_injected_total{kind=%q} %d\n", kv.kind, kv.n)
		}
	})
	emit("cloudqcd_jobs_rescued_total", func() {
		for _, kv := range []struct {
			cause string
			n     int64
		}{{"qpu_outage", fs.RescuedOutage}, {"shard_drain", fs.RescuedDrain}} {
			fmt.Fprintf(buf, "cloudqcd_jobs_rescued_total{cause=%q} %d\n", kv.cause, kv.n)
		}
	})
	plain("cloudqcd_fault_retries_total", float64(fs.Retries))
	plain("cloudqcd_fault_reroutes_total", float64(fs.Reroutes))
	plain("cloudqcd_fault_retry_exhausted_total", float64(fs.RetryExhausted))
	plain("cloudqcd_events_dropped_total", float64(s.events.dropped))
	trc := s.f.Trace()
	traceJobs := 0
	if trc != nil {
		traceJobs = trc.Len()
	}
	plain("cloudqcd_trace_jobs_total", float64(traceJobs))
	emit("cloudqcd_jct_attribution_cx_total", func() {
		if trc == nil {
			return
		}
		for _, ta := range trc.Tenants() {
			for _, pv := range []struct {
				phase string
				v     float64
			}{{"queue", ta.Queue}, {"compile", ta.Compile}, {"local", ta.Local}, {"network", ta.Network}, {"suspended", ta.Suspended}} {
				fmt.Fprintf(buf, "cloudqcd_jct_attribution_cx_total{tenant=\"%d\",phase=%q} %s\n", ta.Tenant, pv.phase, fmtFloat(pv.v))
			}
		}
	})
	walEnabled := 0.0
	var ws struct {
		records, syncs int
		bytes          int64
		syncSeconds    float64
	}
	if w := s.cfg.WAL; w != nil {
		walEnabled = 1
		st := w.Stats()
		ws.records, ws.bytes, ws.syncs, ws.syncSeconds = st.Records, st.Bytes, st.Syncs, st.SyncSeconds
	}
	plain("cloudqcd_wal_enabled", walEnabled)
	plain("cloudqcd_wal_records_total", float64(ws.records))
	plain("cloudqcd_wal_bytes_total", float64(ws.bytes))
	plain("cloudqcd_wal_fsyncs_total", float64(ws.syncs))
	plain("cloudqcd_wal_fsync_seconds_total", ws.syncSeconds)
}

// familyNamed resolves a family from the table; a rendered name missing
// from the table is a programming error the scrape test also catches.
func familyNamed(name string) metricFamily {
	for _, fam := range metricFamilies {
		if fam.name == name {
			return fam
		}
	}
	return metricFamily{name: name, typ: "untyped", help: "(undocumented)"}
}

// fmtFloat renders a sample value: integral values without an exponent,
// everything else in Go's shortest form (Prometheus accepts both).
func fmtFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// sortedKeys returns m's keys ascending (deterministic expositions).
func sortedKeys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
