package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/epr"
	"cloudqc/internal/fed"
	"cloudqc/internal/loadgen"
	"cloudqc/internal/place"
	"cloudqc/internal/sched"
	"cloudqc/internal/service"
	"cloudqc/internal/trace"
	"cloudqc/internal/wal"
)

const (
	// httpRate is the generator's offered load in requests per second,
	// well below what the daemon serves on two cores.
	httpRate    = 600
	httpTenants = 4
	// scrapeEvery is the cadence of GET /v1/stats and of GET /metrics
	// (each once per period, half a period apart).
	scrapeEvery = time.Second
	// The prep step writes walJobs submissions into the WAL, one every
	// walSpacing of fake-clock time, from the same four tenants. Every
	// midEvery-th is a mid-size qlib circuit instead of the GHZ one,
	// submitted after a quiet midGap so it meets an empty cloud and
	// finishes before the next: replay then re-places and re-simulates
	// real circuits, and their JCTs vary with the seed's EPR sampling.
	walJobs    = 8000
	walSpacing = 4 * time.Millisecond
	midEvery   = 400
	midGap     = 30 * time.Second
	// recoveries is how many times set-up recovers the WAL; setup_s is
	// their median and the last one serves.
	recoveries = 5
	// settleTimeout bounds the wait for accepted jobs to settle after
	// the timed phase.
	settleTimeout = 60 * time.Second
)

// walTemplates are the history's mid-size circuits, submitted by name.
var walTemplates = []string{"qft_n29", "qaoa_n32", "ising_n34", "wstate_n36", "qugan_n39"}

// daemon is one cloudqcd-shaped server stack: FIFO, one shard, the
// default cloud, timescale 1000, WAL on.
type daemon struct {
	srv   *service.Server
	log   *wal.Log
	cloud *cloud.Cloud
	place *placeLayer
	sched *schedLayer
	rec   *trace.Recorder
}

// newDaemon builds the server exactly as cmd/cloudqcd does with its
// default flags plus -wal, using now as the wall clock. With traced
// set, the placer and policy are wrapped and tracing is on.
func newDaemon(seed int64, log *wal.Log, now func() time.Time, traced bool) (*daemon, error) {
	model := epr.DefaultModel()
	pcfg := place.DefaultConfig()
	pcfg.Seed = seed
	d := &daemon{log: log, cloud: cloud.NewRandom(cloudQPUs, cloudEdgeProb, cloudComputing, cloudComm, cloudSeed)}
	var placer place.Placer = place.NewCloudQC(pcfg)
	var policy sched.Policy = sched.CloudQCPolicy{}
	if traced {
		placer, d.place = wrapPlacer(placer)
		d.sched = &schedLayer{inner: policy}
		policy = d.sched
		d.rec = trace.New()
	}
	f, err := fed.New(fed.Config{
		Shard:  core.Config{Placer: placer, Policy: policy, Model: model, Mode: core.FIFOMode, Seed: seed},
		Clouds: []*cloud.Cloud{d.cloud},
		Trace:  d.rec,
	})
	if err != nil {
		return nil, err
	}
	d.srv, err = service.New(service.Config{Federation: f, TimeScale: 1000, WAL: log, Now: now})
	return d, err
}

// prepWAL writes the daemon history set-up recovers: walJobs GHZ
// submissions through the real handler, under a fake clock, so the
// log's records are the same for every run with the same seed.
func prepWAL(path string, seed int64) error {
	log, recs, err := wal.Open(path)
	if err != nil {
		return err
	}
	if len(recs) > 0 {
		return fmt.Errorf("wal %s is not empty", path)
	}
	clock := time.Unix(0, 0)
	d, err := newDaemon(seed, log, func() time.Time { return clock }, false)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	do := func(method, path string, req *service.SubmitRequest, want int) error {
		var body io.Reader
		if req != nil {
			b, _ := json.Marshal(req)
			body = bytes.NewReader(b)
		}
		rw := httptest.NewRecorder()
		d.srv.ServeHTTP(rw, httptest.NewRequest(method, path, body))
		if rw.Code != want {
			return fmt.Errorf("prep %s %s: HTTP %d: %s", method, path, rw.Code, rw.Body.String())
		}
		return nil
	}
	for i := 0; i < walJobs; i++ {
		clock = clock.Add(walSpacing)
		req := service.SubmitRequest{Tenant: rng.Intn(httpTenants), QASM: loadgen.GHZ3QASM}
		if i%midEvery == 0 {
			clock = clock.Add(midGap)
			req.QASM, req.Circuit = "", walTemplates[(i/midEvery)%len(walTemplates)]
		}
		if err := do(http.MethodPost, "/v1/jobs", &req, http.StatusAccepted); err != nil {
			return err
		}
	}
	// A last advance, logged as a step record, settles the history.
	clock = clock.Add(midGap)
	if err := do(http.MethodGet, "/v1/stats", nil, http.StatusOK); err != nil {
		return err
	}
	return log.Close()
}

// recoverDaemon is the daemon's restart path: open the WAL, build the
// server, replay the recovered records.
func recoverDaemon(path string, seed int64, traced bool) (*daemon, int, time.Duration, error) {
	t0 := time.Now()
	log, recs, err := wal.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	d, err := newDaemon(seed, log, time.Now, traced)
	if err == nil {
		_, err = d.srv.Replay(recs)
	}
	if err != nil {
		log.Close()
		return nil, 0, 0, err
	}
	return d, len(recs), time.Since(t0), nil
}

// reqKind is one generator request type.
type reqKind int

const (
	kindSubmit reqKind = iota
	kindPoll
	kindStats
	kindMetrics
)

// planned is one scheduled request: its due offset from the start of
// the timed phase, its kind, the submitting tenant, and the uniform
// draw that picks a polled id.
type planned struct {
	at     time.Duration
	kind   reqKind
	tenant int
	pick   float64
}

// schedule lays out the open-loop request plan for dur at httpRate:
// even slots submit, odd slots poll, and the scrapes take the slots on
// their cadence.
func schedule(seed int64, dur time.Duration) []planned {
	rng := rand.New(rand.NewSource(seed))
	interval := time.Second / httpRate
	var plan []planned
	nextStats, nextMetrics := scrapeEvery/4, 3*scrapeEvery/4
	for at := time.Duration(0); at < dur; at += interval {
		p := planned{at: at, kind: kindPoll, tenant: rng.Intn(httpTenants), pick: rng.Float64()}
		switch {
		case at >= nextStats:
			p.kind = kindStats
			nextStats += scrapeEvery
		case at >= nextMetrics:
			p.kind = kindMetrics
			nextMetrics += scrapeEvery
		case len(plan)%2 == 0:
			p.kind = kindSubmit
		}
		plan = append(plan, p)
	}
	return plan
}

// sample is one completed generator request.
type sample struct {
	kind reqKind
	// fromDue is the latency from the due time; fromSend from the
	// moment the request left; late is how far behind schedule it left.
	fromDue, fromSend, late time.Duration
	ok                      bool
}

// serviceLayer is timing middleware around the daemon's http.Handler.
// It records the handler time and status of every generator request
// (those carrying a seqHeader), indexed by sequence number.
type serviceLayer struct {
	inner http.Handler
	mu    sync.Mutex
	dur   []time.Duration
	code  []int
}

const seqHeader = "X-Perfbench-Seq"

func (l *serviceLayer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.Atoi(r.Header.Get(seqHeader))
	if err != nil {
		l.inner.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	t0 := time.Now()
	l.inner.ServeHTTP(sw, r)
	d := time.Since(t0)
	l.mu.Lock()
	if seq >= 0 && seq < len(l.dur) {
		l.dur[seq], l.code[seq] = d, sw.code
	}
	l.mu.Unlock()
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// scrape is the counters read from /metrics and /v1/stats around the
// timed phase.
type scrape struct {
	metrics map[string]float64
	stats   service.StatsResponse
}

func getScrape(c *http.Client, base string) (*scrape, error) {
	s := &scrape{metrics: make(map[string]float64)}
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				s.metrics[name] = v
			}
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	resp, err = c.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: HTTP %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s.stats)
}

// runHTTP runs the http-mixed workload: prep (untimed) writes the WAL,
// set-up recovers it several times, and the last recovered daemon
// serves the open-loop generator over loopback TCP for dur. Every
// accepted job must then settle, exactly once, under its id.
func runHTTP(seed int64, dur time.Duration, traced bool) (out outcome) {
	dir, err := os.MkdirTemp("", "http-mixed-")
	if err != nil {
		return outcome{err: err}
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cloudqcd.wal")
	if err := prepWAL(path, seed); err != nil {
		return outcome{err: fmt.Errorf("prep: %w", err)}
	}

	var setups []float64
	var d *daemon
	var replayed int
	for i := 0; i < recoveries; i++ {
		runtime.GC()
		var took time.Duration
		if d, replayed, took, err = recoverDaemon(path, seed, traced); err != nil {
			return outcome{err: fmt.Errorf("recovery: %w", err)}
		}
		setups = append(setups, took.Seconds())
		if i < recoveries-1 {
			if err := d.log.Close(); err != nil {
				return outcome{err: err}
			}
		}
	}
	defer d.log.Close()
	if d.place != nil {
		d.place.durs, d.place.calls, d.place.infeasible, d.place.errs = nil, 0, 0, 0
		d.sched.durs = nil
	}

	plan := schedule(seed, dur)
	var handler http.Handler = d.srv
	var layer *serviceLayer
	if traced {
		layer = &serviceLayer{inner: d.srv, dur: make([]time.Duration, len(plan)), code: make([]int, len(plan))}
		handler = layer
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return outcome{err: err}
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil && out.err == nil {
			out.err = err
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) && out.err == nil {
			out.err = err
		}
	}()

	conns := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()
	base := "http://" + ln.Addr().String()
	before, err := getScrape(client, base)
	if err != nil {
		return outcome{err: fmt.Errorf("scrape before: %w", err)}
	}

	// The open-loop generator: conns workers take requests in plan
	// order and send each at its due time, or as soon as a worker is
	// free once it is overdue.
	bodies := make([][]byte, httpTenants)
	for t := range bodies {
		bodies[t], _ = json.Marshal(service.SubmitRequest{Tenant: t, QASM: loadgen.GHZ3QASM})
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		accepted []int
		firstErr error
		wg       sync.WaitGroup
	)
	samples := make([]sample, len(plan))
	cpu0 := cpuTime()
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					return
				}
				p := plan[i]
				due := start.Add(p.at)
				time.Sleep(time.Until(due))
				var req *http.Request
				switch p.kind {
				case kindSubmit:
					req, _ = http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(bodies[p.tenant]))
				case kindPoll:
					mu.Lock()
					n := len(accepted)
					id := -1
					if n > 0 {
						id = accepted[int(p.pick*float64(n))]
					}
					mu.Unlock()
					if id < 0 {
						// Nothing accepted yet: scrape stats instead, so
						// every poll targets an id the daemon returned.
						p.kind = kindStats
						req, _ = http.NewRequest(http.MethodGet, base+"/v1/stats", nil)
					} else {
						req, _ = http.NewRequest(http.MethodGet, base+"/v1/jobs/"+strconv.Itoa(id), nil)
					}
				case kindStats:
					req, _ = http.NewRequest(http.MethodGet, base+"/v1/stats", nil)
				case kindMetrics:
					req, _ = http.NewRequest(http.MethodGet, base+"/metrics", nil)
				}
				req.Header.Set(seqHeader, strconv.Itoa(i))
				sent := time.Now()
				id, err := send(client, req, p.kind)
				done := time.Now()
				samples[i] = sample{kind: p.kind, fromDue: done.Sub(due), fromSend: done.Sub(sent), late: sent.Sub(due), ok: err == nil}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("request %d: %w", i, err)
				}
				if err == nil && p.kind == kindSubmit {
					accepted = append(accepted, id)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	timed := time.Since(start)
	cpu := cpuTime() - cpu0

	after, err := getScrape(client, base)
	if err != nil {
		return outcome{err: fmt.Errorf("scrape after: %w", err)}
	}
	var ok int
	for _, s := range samples {
		out.attempted++
		if s.ok {
			ok++
		} else {
			out.failed++
		}
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http-mixed: first failed request:", firstErr)
	}

	// Every accepted job settles before the run ends.
	deadline := time.Now().Add(settleTimeout)
	for {
		st, err := getScrape(client, base)
		if err != nil {
			return outcome{err: fmt.Errorf("settle poll: %w", err)}
		}
		if st.stats.Settled == st.stats.Submitted {
			break
		}
		if time.Now().After(deadline) {
			out.err = fmt.Errorf("%d of %d jobs settled %v after the timed phase", st.stats.Settled, st.stats.Submitted, settleTimeout)
			return out
		}
		time.Sleep(20 * time.Millisecond)
	}
	results, err := d.srv.Drain()
	if err != nil {
		out.err = fmt.Errorf("drain: %w", err)
		return out
	}
	byID := make(map[int]*core.JobResult, len(results))
	for _, r := range results {
		if byID[r.Job.ID] != nil {
			out.err = fmt.Errorf("job %d reported twice", r.Job.ID)
			return out
		}
		byID[r.Job.ID] = r
	}
	if len(results) != before.stats.Submitted+len(accepted) {
		out.err = fmt.Errorf("%d results after drain, want %d recovered + %d accepted", len(results), before.stats.Submitted, len(accepted))
		return out
	}
	var timedResults []*core.JobResult
	for _, id := range accepted {
		r := byID[id]
		if r == nil || r.Failed {
			out.err = fmt.Errorf("accepted job %d did not complete", id)
			return out
		}
		timedResults = append(timedResults, r)
	}
	jct := 0.0
	for _, r := range results {
		if r.Failed {
			out.err = fmt.Errorf("job %d failed", r.Job.ID)
			return out
		}
		jct += r.JCT
	}
	total := 0
	for i := 0; i < d.cloud.NumQPUs(); i++ {
		total += d.cloud.QPU(i).Computing
	}
	if free := d.cloud.TotalFreeComputing(); free != total {
		out.err = fmt.Errorf("%d of %d computing qubits free after drain", free, total)
		return out
	}
	if err := checkAttribution(d.rec, timedResults); err != nil {
		out.err = err
		return out
	}

	lat := func(k reqKind, from func(sample) time.Duration) []float64 {
		var xs []float64
		for _, s := range samples {
			if s.kind == k && s.ok {
				xs = append(xs, from(s).Seconds())
			}
		}
		return xs
	}
	due := func(s sample) time.Duration { return s.fromDue }
	delta := func(name string) float64 { return after.metrics[name] - before.metrics[name] }
	nAcc := float64(len(accepted))
	if !traced {
		out.values = map[string]float64{
			"setup_s":       median(setups),
			"cpu_us_per_op": cpu.Seconds() / float64(ok) * 1e6,
			"peak_rss_mb":   peakRSSMB(),
			"jobs_per_s":    nAcc / timed.Seconds(),
			"jct_mean_cx":   jct / float64(len(results)),
			// Printed for context, not part of the result line: client
			// latency here follows the disk under the WAL (see README.md).
			"client.submit_p50_ms": median(lat(kindSubmit, due)) * 1e3,
			"client.read_p50_ms":   median(lat(kindPoll, due)) * 1e3,
			"wal.fsync_s":          delta("cloudqcd_wal_fsync_seconds_total"),
			"wal.fsyncs":           delta("cloudqcd_wal_fsyncs_total"),
		}
		return out
	}

	var busy time.Duration
	var codes [6]int
	byKind := map[reqKind][]float64{}
	var overhead, lateMs []float64
	layer.mu.Lock()
	for i, s := range samples {
		lateMs = append(lateMs, s.late.Seconds()*1e3)
		if layer.code[i] == 0 {
			continue
		}
		busy += layer.dur[i]
		codes[layer.code[i]/100]++
		byKind[s.kind] = append(byKind[s.kind], layer.dur[i].Seconds()*1e6)
		overhead = append(overhead, (s.fromSend-layer.dur[i]).Seconds()*1e6)
	}
	layer.mu.Unlock()
	hits := float64(after.stats.PlanCache.Hits - before.stats.PlanCache.Hits)
	misses := float64(after.stats.PlanCache.Misses - before.stats.PlanCache.Misses)
	var queue, network, local, makespan float64
	for _, r := range timedResults {
		a := d.rec.Get(r.Job.ID).Attr
		queue += a.Queue
		network += a.Network
		local += a.Local
		makespan = math.Max(makespan, r.Finished)
	}
	submits, reads := lat(kindSubmit, due), lat(kindPoll, due)
	out.values = map[string]float64{
		"place.calls":           float64(d.place.calls),
		"place.infeasible":      float64(d.place.infeasible),
		"place.useful_ratio":    ratio(float64(d.place.calls-d.place.infeasible-d.place.errs), float64(d.place.calls)),
		"place.busy_s":          sum(d.place.durs).Seconds(),
		"place.ms_p50":          quantile(millis(d.place.durs), 0.5),
		"place.ms_p90":          quantile(millis(d.place.durs), 0.9),
		"plan.hits":             hits,
		"plan.misses":           misses,
		"plan.hit_ratio":        ratio(hits, hits+misses),
		"sched.alloc_calls":     float64(len(d.sched.durs)),
		"sched.alloc_busy_s":    sum(d.sched.durs).Seconds(),
		"sched.alloc_us_p50":    median(secs(d.sched.durs)) * 1e6,
		"core.rounds":           delta("cloudqcd_rounds_total"),
		"core.events":           delta("cloudqcd_events_total"),
		"core.rounds_per_job":   delta("cloudqcd_rounds_total") / nAcc,
		"sim.queue_cx_mean":     queue / nAcc,
		"sim.network_cx_mean":   network / nAcc,
		"sim.local_cx_mean":     local / nAcc,
		"sim.makespan_cx":       makespan,
		"service.submit_us_p50": median(byKind[kindSubmit]),
		"service.read_us_p50":   median(byKind[kindPoll]),
		"service.stats_us_p50":  median(byKind[kindStats]),
		"service.busy_s":        busy.Seconds(),
		"service.status_2xx":    float64(codes[2]),
		"service.status_4xx":    float64(codes[4]),
		"service.status_5xx":    float64(codes[5]),
		"http.overhead_us_p50":  median(overhead),
		"client.submit_p50_ms":  median(submits) * 1e3,
		"client.submit_p99_ms":  quantile(submits, 0.99) * 1e3,
		"client.submit_n":       float64(len(submits)),
		"client.read_p50_ms":    median(reads) * 1e3,
		"client.read_p99_ms":    quantile(reads, 0.99) * 1e3,
		"client.read_n":         float64(len(reads)),
		"wal.records":           delta("cloudqcd_wal_records_total"),
		"wal.fsyncs":            delta("cloudqcd_wal_fsyncs_total"),
		"wal.fsync_s":           delta("cloudqcd_wal_fsync_seconds_total"),
		"wal.bytes":             delta("cloudqcd_wal_bytes_total"),
		"wal.replay_s":          median(setups),
		"wal.replay_records":    float64(replayed),
		"gen.sent":              float64(len(samples)),
		"gen.failed":            float64(out.failed),
		"gen.late_ms_p99":       quantile(lateMs, 0.99),
	}
	return out
}

// send issues one generator request and checks its response: a submit
// must be accepted with a job id, a poll must return that job, and a
// scrape must succeed. It returns the accepted id for submits.
func send(c *http.Client, req *http.Request, kind reqKind) (int, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	switch kind {
	case kindSubmit, kindPoll:
		var jr service.JobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			return 0, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
		}
		if kind == kindPoll && "/v1/jobs/"+strconv.Itoa(jr.ID) != req.URL.Path {
			return 0, fmt.Errorf("GET %s answered for job %d", req.URL.Path, jr.ID)
		}
		return jr.ID, nil
	}
	return 0, nil
}
