// Command perfbench is CloudQC's end-to-end benchmark. It drives the
// program only through its packages' exported APIs and runs one of
// three workloads (see README.md):
//
//	sim-compile  placement-bound WFQ stream through core.LiveController
//	sim-rounds   EPR-round-bound FIFO bursts with a warm plan cache
//	http-mixed   the cloudqcd daemon over loopback under mixed traffic
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics of an untraced run;
// with --trace 1 it wraps each layer's entry points from outside and
// prints the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. A
// failed correctness gate prints the object with "correct": false and
// exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics; every workload reports
// all of them (see README.md for each one's meaning per workload).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MiB"},
	{"jobs_per_s", "1/s"},
	{"jct_mean_cx", "cx"},
}

// perLayer lists the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"place.calls", "count"},
	{"place.infeasible", "count"},
	{"place.useful_ratio", "ratio"},
	{"place.busy_s", "s"},
	{"place.ms_p50", "ms"},
	{"place.ms_p90", "ms"},
	{"plan.hits", "count"},
	{"plan.misses", "count"},
	{"plan.hit_ratio", "ratio"},
	{"sched.alloc_calls", "count"},
	{"sched.alloc_busy_s", "s"},
	{"sched.alloc_us_p50", "us"},
	{"core.step_busy_s", "s"},
	{"core.self_s", "s"},
	{"core.self_ns_per_round", "ns"},
	{"core.rounds", "count"},
	{"core.events", "count"},
	{"core.rounds_per_job", "count"},
	{"sim.queue_cx_mean", "cx"},
	{"sim.network_cx_mean", "cx"},
	{"sim.local_cx_mean", "cx"},
	{"sim.makespan_cx", "cx"},
	{"service.submit_us_p50", "us"},
	{"service.read_us_p50", "us"},
	{"service.stats_us_p50", "us"},
	{"service.busy_s", "s"},
	{"service.status_2xx", "count"},
	{"service.status_4xx", "count"},
	{"service.status_5xx", "count"},
	{"http.overhead_us_p50", "us"},
	{"client.submit_p50_ms", "ms"},
	{"client.submit_p99_ms", "ms"},
	{"client.submit_n", "count"},
	{"client.read_p50_ms", "ms"},
	{"client.read_p99_ms", "ms"},
	{"client.read_n", "count"},
	{"wal.records", "count"},
	{"wal.fsyncs", "count"},
	{"wal.fsync_s", "s"},
	{"wal.bytes", "bytes"},
	{"wal.replay_s", "s"},
	{"wal.replay_records", "count"},
	{"gen.sent", "count"},
	{"gen.failed", "count"},
	{"gen.late_ms_p99", "ms"},
	{"trace.overhead_s", "s"},
}

// outcome is what a workload run hands back: its metric values by name
// (units come from the tables above), the operations attempted and
// failed, and a gate error when an output was wrong.
type outcome struct {
	values            map[string]float64
	attempted, failed int
	err               error
}

func main() {
	workload := flag.String("workload", "", "sim-compile, sim-rounds, or http-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured run length in seconds")
	traceFlag := flag.Int("trace", 0, "1 prints the traced run's per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	traced := *traceFlag == 1

	var out outcome
	switch *workload {
	case "sim-compile", "sim-rounds":
		out = runSim(*workload, *seed, dur, traced)
	case "http-mixed":
		out = runHTTP(*seed, dur, traced)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	table := endToEnd
	if traced {
		table = perLayer
	}
	rep := report{
		Correct:   out.err == nil && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(table)),
	}
	for _, m := range table {
		v := out.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a layer with no samples, such as no placer calls
		}
		rep.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	names := make([]string, 0, len(out.values))
	for n := range out.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-24s %.6g\n", n, out.values[n])
	}
	if out.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", out.err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}
