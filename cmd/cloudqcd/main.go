// Command cloudqcd is the CloudQC service daemon: an always-on HTTP
// admission front over the live multi-tenant controller. Tenants
// submit circuits (qlib benchmark names or inline OpenQASM 2.0) to
// POST /v1/jobs at any time; a virtual-time pacer maps the wall clock
// onto EPR-attempt rounds, per-tenant token buckets and in-flight
// quotas answer overload with 429 + Retry-After, and SIGINT/SIGTERM
// drains the backlog before exiting with a final stream summary.
//
// Usage:
//
//	cloudqcd [flags]
//
//	-addr        listen address (default :8080)
//	-qpus, -edge-prob, -computing, -comm
//	             cloud shape (defaults: the paper's 20 QPUs, p=0.3,
//	             20 computing + 5 communication qubits each)
//	-epr-prob    EPR generation success probability (default 0.3)
//	-seed        controller seed
//	-mode        admission mode: batch, fifo, edf, or wfq
//	-preempt     preemption policy at EPR-round boundaries: off (the
//	             default; placements are final), rescue (a queued job
//	             with a live deadline may checkpoint-and-displace
//	             running jobs with strictly later deadlines), or
//	             priority (displace strictly lower-weight jobs);
//	             preempted jobs resume from their checkpoint under
//	             their original id, and GET /v1/stats reports
//	             preemption/resume/rescued-deadline counters
//	-tenant-weighted
//	             split each EPR round's budget across tenants by weight
//	-shards      federation shard count (default 1): N controller
//	             shards, each over its own copy of the cloud shape,
//	             behind one admission router; in WFQ mode tenants are
//	             billed into one shared virtual-clock space, and 1
//	             behaves bit-identically to the unfederated daemon
//	-routing     federation admission routing: affinity (plan-cache
//	             locality with load spillover, the default) or random
//	             (the ablation arm)
//	-spill       affinity spillover backlog slack: spill when the
//	             affinity shard runs at least this many jobs deeper
//	             than the least-loaded shard (1 = spill whenever
//	             deeper, 0 = default 4, negative disables)
//	-timescale   virtual CX units per wall second (default 1000)
//	-rate        per-tenant submissions/second (0 disables limiting)
//	-burst       per-tenant burst capacity (default ceil(rate), min 1)
//	-quota       per-tenant max in-flight jobs (0 = unlimited)
//	-plancache   compile-once plan cache LRU capacity (0 = default 256,
//	             negative disables caching; GET /v1/stats reports
//	             hit/miss counters, merged across shards)
//	-faults      JSON fault plan path: a deterministic virtual-time
//	             schedule of QPU outages, link degradations, and shard
//	             drains, plus recovery knobs (checkpoint-rescue vs fail,
//	             retry budget, dead-edge route-around); shard drains
//	             need -shards > 1. Faults can also be injected live on
//	             POST /v1/faults; GET /v1/stats and /metrics report
//	             injection and rescue counters (empty disables)
//	-wal         write-ahead log path: every accepted submission is
//	             fsynced before admission, boot replays the log so a
//	             restart recovers in-flight jobs bit-identically, and a
//	             clean drain truncates it (empty disables durability)
//	-degrade     backlog watermark at which admission degrades to FIFO
//	             (0 = never)
//	-shed        backlog watermark at which submissions are shed with
//	             503 + Retry-After (0 = never; must be ≥ -degrade)
//	-trace       record deterministic virtual-time execution spans for
//	             every job (queue wait, admission decision, compiles,
//	             EPR rounds, suspensions, rehomes) and serve them on
//	             GET /v1/jobs/{id}/trace with a JCT attribution whose
//	             phases sum to the JCT to within rounding (an ulp or
//	             two); per-tenant aggregates
//	             land in /v1/stats and /metrics. Off by default: the
//	             disabled path costs nothing on the scheduling hot loop
//	-pprof       net/http/pprof listen address (e.g. localhost:6060) on
//	             a separate private mux — never exposed on -addr (empty
//	             disables profiling)
//
// Endpoints: POST /v1/jobs, GET /v1/jobs/{id}, GET /v1/jobs/{id}/events,
// GET /v1/jobs/{id}/trace, GET /v1/events, POST /v1/faults,
// GET /v1/stats, GET /v1/cluster, GET /metrics — see docs/API.md for
// the wire format
// and docs/OPERATIONS.md for the operator guide (recovery semantics,
// watermarks, metrics reference, profiling runbook).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/epr"
	"cloudqc/internal/fault"
	"cloudqc/internal/fed"
	"cloudqc/internal/metrics"
	"cloudqc/internal/place"
	"cloudqc/internal/sched"
	"cloudqc/internal/service"
	"cloudqc/internal/trace"
	"cloudqc/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cloudqcd:", err)
		os.Exit(1)
	}
}

// daemon is a built-but-not-yet-listening cloudqcd: the service, its
// write-ahead log (nil without -wal), the listen address, and how many
// jobs boot-time recovery replayed.
type daemon struct {
	svc       *service.Server
	wlog      *wal.Log
	addr      string
	pprofAddr string
	recovered int
}

// build assembles the service from CLI flags — including opening the
// WAL and replaying any recovered records; split from run so tests can
// drive the handler without binding a socket.
func build(args []string) (*daemon, error) {
	fs := flag.NewFlagSet("cloudqcd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		qpus       = fs.Int("qpus", 20, "number of QPUs in the cloud")
		edgeProb   = fs.Float64("edge-prob", 0.3, "random topology edge probability")
		computing  = fs.Int("computing", 20, "computing qubits per QPU")
		comm       = fs.Int("comm", 5, "communication qubits per QPU")
		eprProb    = fs.Float64("epr-prob", 0.3, "EPR generation success probability")
		seed       = fs.Int64("seed", 1, "controller seed")
		mode       = fs.String("mode", "fifo", "admission mode: batch, fifo, edf, or wfq")
		preempt    = fs.String("preempt", "off", "preemption policy: off, rescue, or priority")
		weighted   = fs.Bool("tenant-weighted", false, "tenant-weighted EPR allocation policy")
		shards     = fs.Int("shards", 1, "federation shard count (1 = single controller)")
		routing    = fs.String("routing", "affinity", "federation routing: affinity or random")
		spill      = fs.Int("spill", 0, "affinity spillover backlog slack (0 = default, negative disables)")
		timescale  = fs.Float64("timescale", 1000, "virtual CX units per wall second")
		rate       = fs.Float64("rate", 0, "per-tenant submissions per second (0 = unlimited)")
		burst      = fs.Int("burst", 0, "per-tenant burst capacity (default ceil(rate))")
		quota      = fs.Int("quota", 0, "per-tenant max in-flight jobs (0 = unlimited)")
		planCache  = fs.Int("plancache", 0, "plan-cache LRU capacity (0 = default, negative disables)")
		faultsPath = fs.String("faults", "", "JSON fault plan path (empty disables fault injection)")
		walPath    = fs.String("wal", "", "write-ahead log path (empty disables durability)")
		degrade    = fs.Int("degrade", 0, "backlog watermark that degrades admission to FIFO (0 = never)")
		shedAt     = fs.Int("shed", 0, "backlog watermark that sheds submissions with 503 (0 = never)")
		traceOn    = fs.Bool("trace", false, "record virtual-time execution spans and serve /v1/jobs/{id}/trace")
		pprofAddr  = fs.String("pprof", "", "net/http/pprof listen address on a private mux (empty disables)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	m, err := core.ParseMode(*mode)
	if err != nil {
		return nil, err
	}
	pp, err := core.ParsePreempt(*preempt)
	if err != nil {
		return nil, err
	}
	rt, err := fed.ParseRouting(*routing)
	if err != nil {
		return nil, err
	}
	if *shards < 1 {
		return nil, fmt.Errorf("-shards %d: need at least 1", *shards)
	}
	if *shedAt > 0 && *degrade > 0 && *shedAt < *degrade {
		return nil, fmt.Errorf("-shed %d below -degrade %d: shedding must be the harder watermark", *shedAt, *degrade)
	}
	model := epr.DefaultModel()
	model.SuccessProb = *eprProb
	pCfg := place.DefaultConfig()
	pCfg.Seed = *seed
	pCfg.Model = model
	cfg := core.Config{
		Placer:        place.NewCloudQC(pCfg),
		Model:         model,
		Mode:          m,
		Seed:          *seed,
		Preempt:       pp,
		PlanCacheSize: *planCache,
	}
	if *weighted {
		cfg.Policy = sched.NewTenantWeightedPolicy()
	}
	// Each shard gets its own copy of the cloud shape (clouds carry
	// mutable reservations); one shard is bit-identical to the
	// unfederated daemon.
	clouds := make([]*cloud.Cloud, *shards)
	for i := range clouds {
		clouds[i] = cloud.NewRandom(*qpus, *edgeProb, *computing, *comm, *seed)
	}
	fedCfg := fed.Config{
		Shard:      cfg,
		Clouds:     clouds,
		Routing:    rt,
		SpillDepth: *spill,
	}
	if *faultsPath != "" {
		plan, err := fault.Load(*faultsPath)
		if err != nil {
			return nil, err
		}
		fedCfg.Faults = plan
	}
	if *traceOn {
		// One shared recorder across every shard: traces follow jobs
		// through cross-shard rehomes, and WAL replay rebuilds them
		// bit-identically by re-walking the same operation stream.
		fedCfg.Trace = trace.New()
	}
	f, err := fed.New(fedCfg)
	if err != nil {
		return nil, err
	}
	var (
		wlog *wal.Log
		recs []wal.Record
	)
	if *walPath != "" {
		if wlog, recs, err = wal.Open(*walPath); err != nil {
			return nil, err
		}
	}
	srv, err := service.New(service.Config{
		Federation:     f,
		TimeScale:      *timescale,
		Rate:           *rate,
		Burst:          *burst,
		MaxInFlight:    *quota,
		WAL:            wlog,
		DegradeBacklog: *degrade,
		ShedBacklog:    *shedAt,
	})
	if err != nil {
		return nil, err
	}
	d := &daemon{svc: srv, wlog: wlog, addr: *addr, pprofAddr: *pprofAddr}
	if len(recs) > 0 {
		// Crash recovery: re-walk the logged operation stream through the
		// fresh federation. Determinism makes the rebuilt state — job
		// ids, placements, virtual clock — bit-identical to the state the
		// previous process lost.
		if d.recovered, err = srv.Replay(recs); err != nil {
			return nil, fmt.Errorf("wal replay (%s): %w", *walPath, err)
		}
	}
	return d, nil
}

func run(args []string, stdout io.Writer) error {
	d, err := build(args)
	if err != nil {
		return err
	}
	svc, addr := d.svc, d.addr
	if d.recovered > 0 {
		fmt.Fprintf(stdout, "cloudqcd: recovered %d jobs from %s\n", d.recovered, d.wlog.Path())
	}
	httpSrv := &http.Server{
		Addr:    addr,
		Handler: svc,
		// Handlers release the service lock before writing, so a stalled
		// client only wedges its own connection — and these timeouts
		// reclaim even that.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	if d.pprofAddr != "" {
		// Profiling lives on its own mux and listener: pprof handlers are
		// never registered on the public -addr surface, so exposing the
		// daemon does not expose heap dumps and CPU profiles with it.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Fprintf(stdout, "cloudqcd: pprof listening on %s\n", d.pprofAddr)
			if err := http.ListenAndServe(d.pprofAddr, pm); err != nil {
				fmt.Fprintln(os.Stderr, "cloudqcd: pprof:", err)
			}
		}()
	}

	shutdown := make(chan error, 1)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		fmt.Fprintln(stdout, "cloudqcd: shutting down, draining backlog")
		shutdown <- httpSrv.Shutdown(context.Background())
	}()

	fmt.Fprintf(stdout, "cloudqcd: listening on %s\n", addr)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-shutdown; err != nil {
		return err
	}
	results, err := svc.Drain()
	if err != nil {
		return err
	}
	printSummary(stdout, results)
	if d.wlog != nil {
		// A clean drain settles every logged job; the history has nothing
		// left to recover, so the next boot cold-starts on an empty log.
		if err := d.wlog.Reset(); err != nil {
			return err
		}
		if err := d.wlog.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "cloudqcd: wal %s truncated after clean drain\n", d.wlog.Path())
	}
	return nil
}

// printSummary renders the drained stream's final aggregates.
func printSummary(w io.Writer, results []*core.JobResult) {
	on := core.OnlineStatsOf(results)
	fmt.Fprintf(w, "cloudqcd: drained %d jobs (%d failed), mean JCT %.1f CX, p99 %.1f CX, mean wait %.1f CX\n",
		len(results), on.Failed, on.MeanJCT, on.P99JCT, on.MeanWait)
	slo := metrics.AggregateSLO(core.Outcomes(results))
	for _, t := range slo.PerTenant {
		fmt.Fprintf(w, "cloudqcd: tenant %d: %d completed, %d failed, attainment %s\n",
			t.Tenant, t.Completed, t.Failed, pct(t.Attainment))
	}
}

// pct renders an attainment fraction, dashing out NaN (no deadlines).
func pct(v float64) string {
	if v != v {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", v*100)
}
