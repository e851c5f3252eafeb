package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/epr"
	"cloudqc/internal/place"
	"cloudqc/internal/qasm"
	"cloudqc/internal/qlib"
	"cloudqc/internal/sched"
	"cloudqc/internal/trace"
)

// The daemon's default cloud (cloudqcd -qpus 20 -edge-prob 0.3
// -computing 20 -comm 5 -seed 1). The benchmark seed never changes it.
const (
	cloudQPUs      = 20
	cloudEdgeProb  = 0.3
	cloudComputing = 20
	cloudComm      = 5
	cloudSeed      = 1
)

// Mid-size qlib templates (28–71 qubits) for the compile-bound stream.
var compileTemplates = []string{
	"knn_n67", "qugan_n39", "qugan_n71", "ising_n66", "bv_n70",
	"adder_n64", "qaoa_n64", "cc_n64", "vqe_uccsd_n28", "wstate_n36",
}

// One variational burst: five templates that fit the empty cloud
// together, re-submitted identically every period.
var roundsTemplates = []string{"multiplier_n45", "qft_n29", "knn_n67", "qaoa_n64", "qugan_n71"}

const (
	// sim-compile runs compileStreams fixed Poisson streams per cycle;
	// their arrivals and templates never change, and the benchmark seed
	// drives each stream's EPR sampling. At EPR success 0.9 the seed
	// moves completions by a few CX without reordering them, so every
	// seed retries about the same placements; at the daemon's 0.3 the
	// seeds' placement work differed by ±15%.
	compileStreams      = 2
	compileJobs         = 16   // jobs per stream
	compileInterarrival = 40.0 // mean Poisson interarrival, CX units
	compileEPRProb      = 0.9
	// sim-rounds: the warm-up burst plus roundsBursts timed bursts, far
	// enough apart that each burst meets an empty cloud.
	roundsBursts  = 120
	roundsPeriod  = 60000.0
	roundsEPRProb = 0.1
	// minCycles is the fewest cycles an untraced run makes, so every
	// timing is a median of at least three repetitions.
	minCycles = 3
	// extraSetupBudget bounds the set-up-only repetitions that add
	// samples to setup_s before the timed cycles.
	extraSetupBudget = time.Second
	maxSetupSamples  = 30
)

// arrival is one submission instant and the jobs due at it.
type arrival struct {
	at   float64
	jobs []*core.Job
}

// simStream is one deterministic LiveController drive: a fresh cloud
// and controller per repetition, a timed set-up, and a timed phase
// that submits the returned arrivals and drains.
type simStream struct {
	// seed drives the controller's EPR sampling.
	seed int64
	// jobs counts every job the stream submits; timedJobs those the
	// timed phase submits (the rest belong to set-up).
	jobs, timedJobs int
	setup           func(lc *core.LiveController) ([]arrival, error)
}

// simWorkload is one named LiveController workload: its controller
// shape and the streams one cycle runs.
type simWorkload struct {
	name    string
	mode    core.Mode
	eprProb float64
	// weighted selects the tenant-weighted EPR policy.
	weighted bool
	streams  []*simStream
}

// subSeed derives stream k's controller seed from the benchmark seed.
func subSeed(seed int64, k int) int64 { return seed*1000003 + int64(k) }

// newSimCompile builds the sim-compile workload: 4-tenant WFQ streams
// (weights 1/2/4/8) under the tenant-weighted EPR policy, with Poisson
// arrivals dense enough that jobs queue and placement is retried after
// releases. Every submission arrives as inline QASM text, so set-up is
// the daemon's parse path.
func newSimCompile(seed int64) (*simWorkload, error) {
	texts := make(map[string]string, len(compileTemplates))
	for _, name := range compileTemplates {
		c, err := qlib.Build(name)
		if err != nil {
			return nil, err
		}
		texts[name] = qasm.Write(c)
	}
	w := &simWorkload{
		name:     "sim-compile",
		mode:     core.WFQMode,
		eprProb:  compileEPRProb,
		weighted: true,
	}
	type sub struct {
		name   string
		tenant int
		at     float64
	}
	for k := 0; k < compileStreams; k++ {
		rng := rand.New(rand.NewSource(int64(k + 1)))
		subs := make([]sub, compileJobs)
		t := 0.0
		for i := range subs {
			t += rng.ExpFloat64() * compileInterarrival
			subs[i] = sub{compileTemplates[rng.Intn(len(compileTemplates))], rng.Intn(4), math.Round(t)}
		}
		w.streams = append(w.streams, &simStream{
			seed:      subSeed(seed, k),
			jobs:      compileJobs,
			timedJobs: compileJobs,
			setup: func(*core.LiveController) ([]arrival, error) {
				var arr []arrival
				for i, s := range subs {
					c, err := qasm.Parse(s.name, texts[s.name])
					if err != nil {
						return nil, err
					}
					j := &core.Job{ID: i, Circuit: c, Arrival: s.at, Tenant: s.tenant, Priority: 1 << s.tenant}
					if n := len(arr); n > 0 && arr[n-1].at == s.at {
						arr[n-1].jobs = append(arr[n-1].jobs, j)
					} else {
						arr = append(arr, arrival{at: s.at, jobs: []*core.Job{j}})
					}
				}
				return arr, nil
			},
		})
	}
	return w, nil
}

// newSimRounds builds the sim-rounds workload: FIFO at a low EPR
// success probability, with periodic identical bursts. Set-up runs the
// warm-up burst, whose compiles fill the plan cache; every later burst
// meets the same empty cloud and hits, so the timed phase is the
// scheduler half: EPR-round allocation and the event loop.
func newSimRounds(seed int64) (*simWorkload, error) {
	burst := make([]*circuit.Circuit, len(roundsTemplates))
	for i, name := range roundsTemplates {
		c, err := qlib.Build(name)
		if err != nil {
			return nil, err
		}
		burst[i] = c
	}
	jobsAt := func(k int) arrival {
		a := arrival{at: float64(k) * roundsPeriod}
		for i, c := range burst {
			a.jobs = append(a.jobs, &core.Job{ID: k*len(burst) + i, Circuit: c, Arrival: a.at, Tenant: i % 4})
		}
		return a
	}
	return &simWorkload{
		name:    "sim-rounds",
		mode:    core.FIFOMode,
		eprProb: roundsEPRProb,
		streams: []*simStream{{
			seed:      subSeed(seed, 0),
			jobs:      (roundsBursts + 1) * len(burst),
			timedJobs: roundsBursts * len(burst),
			setup: func(lc *core.LiveController) ([]arrival, error) {
				for _, j := range jobsAt(0).jobs {
					if err := lc.Submit(j); err != nil {
						return nil, err
					}
				}
				if err := lc.StepUntil(roundsPeriod); err != nil {
					return nil, err
				}
				arr := make([]arrival, roundsBursts)
				for k := range arr {
					arr[k] = jobsAt(k + 1)
				}
				return arr, nil
			},
		}},
	}, nil
}

// simRep is one repetition's outcome.
type simRep struct {
	setup, timed, cpu time.Duration
	results           []*core.JobResult
	stats             core.RunStats
	hits, misses      int64
	jctMean           float64
	digest            string
	// Traced repetitions only: the layer decorators, the time spent in
	// timed-phase LiveController calls, how many placer calls set-up
	// made, and the program's own span recorder.
	place       *placeLayer
	sched       *schedLayer
	stepBusy    time.Duration
	setupPlaces int
	rec         *trace.Recorder
}

// repState is one repetition's fresh cloud and controller.
type repState struct {
	cl *cloud.Cloud
	lc *core.LiveController
	// settles counts each job's transitions into a settled state.
	settles map[int]int
}

// start builds a fresh cloud and controller for stream s. With traced
// set, the placer and policy are wrapped in timing decorators and the
// program's span recorder is attached; rep receives the layers.
func (w *simWorkload) start(s *simStream, rep *simRep, traced bool) (*repState, error) {
	model := epr.DefaultModel()
	model.SuccessProb = w.eprProb
	pcfg := place.DefaultConfig()
	pcfg.Seed = cloudSeed
	var placer place.Placer = place.NewCloudQC(pcfg)
	var policy sched.Policy = sched.CloudQCPolicy{}
	if w.weighted {
		policy = sched.NewTenantWeightedPolicy()
	}
	if traced {
		placer, rep.place = wrapPlacer(placer)
		rep.sched = &schedLayer{inner: policy}
		policy = rep.sched
		rep.rec = trace.New()
	}
	rs := &repState{
		cl:      cloud.NewRandom(cloudQPUs, cloudEdgeProb, cloudComputing, cloudComm, cloudSeed),
		settles: make(map[int]int, s.jobs),
	}
	lc, err := core.NewLiveController(core.Config{
		Cloud:  rs.cl,
		Placer: placer,
		Policy: policy,
		Model:  model,
		Mode:   w.mode,
		Seed:   s.seed,
		Trace:  rep.rec,
		OnTransition: func(tr core.Transition) {
			if tr.To.Settled() {
				rs.settles[tr.JobID]++
			}
		},
	})
	rs.lc = lc
	return rs, err
}

// setupOnly times stream s's set-up on a fresh controller, for extra
// setup_s samples.
func (w *simWorkload) setupOnly(s *simStream) (time.Duration, error) {
	rs, err := w.start(s, &simRep{}, false)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if _, err := s.setup(rs.lc); err != nil {
		return 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return time.Since(t0), nil
}

// runRep executes one repetition of stream s on a fresh cloud and
// controller and checks its outputs. A traced repetition also times
// every timed-phase LiveController call.
func (w *simWorkload) runRep(s *simStream, traced bool) (*simRep, error) {
	runtime.GC() // start every repetition from a collected heap
	rep := &simRep{}
	rs, err := w.start(s, rep, traced)
	if err != nil {
		return nil, err
	}
	lc, cl := rs.lc, rs.cl
	total := 0
	for i := 0; i < cl.NumQPUs(); i++ {
		total += cl.QPU(i).Computing
	}

	t0 := time.Now()
	arrivals, err := s.setup(lc)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	rep.setup = time.Since(t0)
	pre := lc.PlanCacheStats()
	if traced {
		rep.setupPlaces = rep.place.calls
		rep.sched.durs = rep.sched.durs[:0]
	}

	// call runs one LiveController call, timing it when tracing.
	call := func(f func() error) error {
		if !traced {
			return f()
		}
		c0 := time.Now()
		err := f()
		rep.stepBusy += time.Since(c0)
		return err
	}
	submitted := s.jobs - s.timedJobs
	cpu0 := cpuTime()
	t0 = time.Now()
	for _, a := range arrivals {
		if err := call(func() error { return lc.StepUntil(a.at) }); err != nil {
			return nil, err
		}
		for _, j := range a.jobs {
			if err := call(func() error { return lc.Submit(j) }); err != nil {
				return nil, err
			}
			submitted++
		}
	}
	var results []*core.JobResult
	if err := call(func() error {
		var err error
		results, err = lc.Drain()
		return err
	}); err != nil {
		return nil, err
	}
	rep.timed = time.Since(t0)
	rep.cpu = cpuTime() - cpu0

	// Correctness gates.
	if submitted != s.jobs || len(results) != s.jobs {
		return nil, fmt.Errorf("%s: %d jobs submitted, %d results, want %d", w.name, submitted, len(results), s.jobs)
	}
	seen := make(map[int]bool, len(results))
	for _, r := range results {
		id := r.Job.ID
		if seen[id] {
			return nil, fmt.Errorf("%s: job %d reported twice", w.name, id)
		}
		seen[id] = true
		if rs.settles[id] != 1 {
			return nil, fmt.Errorf("%s: job %d settled %d times, want exactly once", w.name, id, rs.settles[id])
		}
		if st := lc.Status(id); st != core.StatusCompleted {
			return nil, fmt.Errorf("%s: job %d ended %s, want completed", w.name, id, st)
		}
	}
	if free := cl.TotalFreeComputing(); free != total {
		return nil, fmt.Errorf("%s: %d of %d computing qubits free after Drain", w.name, free, total)
	}
	if err := checkAttribution(rep.rec, results); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	rep.results = results
	rep.stats = lc.RunStats()
	post := lc.PlanCacheStats()
	rep.hits, rep.misses = post.Hits-pre.Hits, post.Misses-pre.Misses
	rep.jctMean, rep.digest = digest(results)
	return rep, nil
}

// checkAttribution verifies that every completed job's settled trace
// splits its JCT into phases that sum back to it (no-op without a
// recorder).
func checkAttribution(rec *trace.Recorder, results []*core.JobResult) error {
	if rec == nil {
		return nil
	}
	for _, r := range results {
		tr := rec.Get(r.Job.ID)
		if tr == nil || !tr.Done {
			return fmt.Errorf("job %d has no settled trace", r.Job.ID)
		}
		a := tr.Attr
		sum := a.Queue + a.Compile + a.Local + a.Network + a.Suspended
		if a.JCT != r.JCT || math.Abs(sum-a.JCT) > 1e-9*math.Max(1, a.JCT) {
			return fmt.Errorf("job %d: attribution phases sum to %v, trace JCT %v, result JCT %v", r.Job.ID, sum, a.JCT, r.JCT)
		}
	}
	return nil
}

// digest returns the mean JCT and a hash of every job's simulated
// outcome, so two commits can be seen to produce the same schedule.
func digest(results []*core.JobResult) (float64, string) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	sum := 0.0
	for _, r := range results {
		put(uint64(r.Job.ID))
		put(math.Float64bits(r.PlacedAt))
		put(math.Float64bits(r.Finished))
		put(uint64(r.RemoteGates))
		for _, q := range r.Placement.QubitToQPU {
			put(uint64(q))
		}
		sum += r.JCT
	}
	return sum / float64(len(results)), fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// runSim runs a LiveController workload for about dur: whole cycles,
// each executing every stream once, until the next cycle would end
// after dur (an untraced run makes at least minCycles). Every
// repetition of a stream must reproduce the first one's simulated run.
// Timings are per-stream medians over the cycles, summed over streams;
// simulated metrics come from the first cycle. With traced set, each
// stream alternates an untraced and a traced repetition, the two must
// agree on every deterministic counter, and the per-layer metrics come
// from the traced ones.
func runSim(name string, seed int64, dur time.Duration, traced bool) outcome {
	build := newSimCompile
	if name == "sim-rounds" {
		build = newSimRounds
	}
	w, err := build(seed)
	if err != nil {
		return outcome{err: err}
	}
	k := len(w.streams)
	plain := make([][]*simRep, k)
	withTrace := make([][]*simRep, k)
	var out outcome
	var setups []float64
	for spent := time.Duration(0); !traced && spent < extraSetupBudget && len(setups) < maxSetupSamples; {
		d, err := w.setupOnly(w.streams[len(setups)%k])
		if err != nil {
			return outcome{err: err}
		}
		setups = append(setups, d.Seconds())
		spent += d
	}
	need := minCycles
	if traced {
		need = 1
	}
	start := time.Now()
	for cycle, last := 0, time.Duration(0); cycle < need || time.Since(start)+last <= dur; cycle++ {
		c0 := time.Now()
		for i, s := range w.streams {
			rep, err := w.runRep(s, false)
			out.attempted += s.jobs
			if err == nil && traced {
				var tr *simRep
				out.attempted += s.jobs
				if tr, err = w.runRep(s, true); err == nil {
					err = sameSchedule(rep, tr)
					if len(withTrace[i]) > 0 {
						tr.results, tr.rec = nil, nil
					}
					withTrace[i] = append(withTrace[i], tr)
				}
			}
			if err == nil && len(plain[i]) > 0 {
				err = sameSchedule(plain[i][0], rep)
				// Only the first cycle's results are read; keeping the
				// rest would tie peak RSS to how many cycles fit.
				rep.results = nil
			}
			if err != nil {
				out.failed += s.jobs
				out.err = fmt.Errorf("%s stream %d: %w", name, i, err)
				return out
			}
			plain[i] = append(plain[i], rep)
		}
		last = time.Since(c0)
	}

	jobs, jct := 0, 0.0
	for i, s := range w.streams {
		jobs += s.timedJobs
		jct += plain[i][0].jctMean * float64(s.jobs)
		fmt.Printf("digest %s stream %d seed %d: %s\n", name, i, s.seed, plain[i][0].digest)
	}
	allJobs := 0
	for _, s := range w.streams {
		allJobs += s.jobs
	}
	if !traced {
		for _, reps := range plain {
			for _, r := range reps {
				setups = append(setups, r.setup.Seconds())
			}
		}
		timed := perStream(plain, func(r *simRep) float64 { return r.timed.Seconds() })
		cpu := perStream(plain, func(r *simRep) float64 { return r.cpu.Seconds() })
		out.values = map[string]float64{
			"setup_s":       median(setups),
			"cpu_us_per_op": cpu / float64(jobs) * 1e6,
			"peak_rss_mb":   peakRSSMB(),
			"jobs_per_s":    float64(jobs) / timed,
			"jct_mean_cx":   jct / float64(allJobs),
		}
		return out
	}

	var placeMs, allocP50 []float64
	calls, infeasible, useful := 0, 0, 0
	for _, reps := range withTrace {
		first := reps[0].place
		calls += first.calls
		infeasible += first.infeasible
		useful += first.calls - first.infeasible - first.errs
		for _, r := range reps {
			placeMs = append(placeMs, millis(r.place.durs)...)
			allocP50 = append(allocP50, median(secs(r.sched.durs))*1e6)
		}
	}
	first := func(f func(r *simRep) float64) float64 {
		t := 0.0
		for _, reps := range withTrace {
			t += f(reps[0])
		}
		return t
	}
	placeBusy := perStream(withTrace, func(r *simRep) float64 { return sum(r.place.durs).Seconds() })
	timedPlace := perStream(withTrace, func(r *simRep) float64 { return sum(r.place.durs[r.setupPlaces:]).Seconds() })
	allocBusy := perStream(withTrace, func(r *simRep) float64 { return sum(r.sched.durs).Seconds() })
	stepBusy := perStream(withTrace, func(r *simRep) float64 { return r.stepBusy.Seconds() })
	rounds := first(func(r *simRep) float64 { return float64(r.stats.Rounds) })
	hits := first(func(r *simRep) float64 { return float64(r.hits) })
	misses := first(func(r *simRep) float64 { return float64(r.misses) })
	self := stepBusy - timedPlace - allocBusy
	var queue, network, local, makespan float64
	for _, reps := range withTrace {
		for _, res := range reps[0].results {
			a := reps[0].rec.Get(res.Job.ID).Attr
			queue += a.Queue
			network += a.Network
			local += a.Local
			makespan = math.Max(makespan, res.Finished)
		}
	}
	n := float64(allJobs)
	out.values = map[string]float64{
		"place.calls":            float64(calls),
		"place.infeasible":       float64(infeasible),
		"place.useful_ratio":     ratio(float64(useful), float64(calls)),
		"place.busy_s":           placeBusy,
		"place.ms_p50":           quantile(placeMs, 0.5),
		"place.ms_p90":           quantile(placeMs, 0.9),
		"plan.hits":              hits,
		"plan.misses":            misses,
		"plan.hit_ratio":         ratio(hits, hits+misses),
		"sched.alloc_calls":      first(func(r *simRep) float64 { return float64(len(r.sched.durs)) }),
		"sched.alloc_busy_s":     allocBusy,
		"sched.alloc_us_p50":     median(allocP50),
		"core.step_busy_s":       stepBusy,
		"core.self_s":            self,
		"core.self_ns_per_round": self / rounds * 1e9,
		"core.rounds":            rounds,
		"core.events":            first(func(r *simRep) float64 { return float64(r.stats.Events) }),
		"core.rounds_per_job":    rounds / n,
		"sim.queue_cx_mean":      queue / n,
		"sim.network_cx_mean":    network / n,
		"sim.local_cx_mean":      local / n,
		"sim.makespan_cx":        makespan,
		"trace.overhead_s": perStream(withTrace, func(r *simRep) float64 { return r.timed.Seconds() }) -
			perStream(plain, func(r *simRep) float64 { return r.timed.Seconds() }),
	}
	return out
}

// perStream sums, over streams, the median of f across that stream's
// repetitions.
func perStream(reps [][]*simRep, f func(*simRep) float64) float64 {
	t := 0.0
	for _, rs := range reps {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		t += median(xs)
	}
	return t
}

// sameSchedule reports whether two repetitions of one stream produced
// the same simulated run: rounds, events, plan-cache hits and misses,
// mean JCT and the schedule digest.
func sameSchedule(a, b *simRep) error {
	if a.stats != b.stats || a.hits != b.hits || a.misses != b.misses || a.jctMean != b.jctMean || a.digest != b.digest {
		return fmt.Errorf("repetitions disagree: rounds %d/%d events %d/%d hits %d/%d misses %d/%d mean JCT %v/%v digest %s/%s",
			a.stats.Rounds, b.stats.Rounds, a.stats.Events, b.stats.Events, a.hits, b.hits, a.misses, b.misses,
			a.jctMean, b.jctMean, a.digest, b.digest)
	}
	return nil
}

// ratio is num/den, or 1 when den is 0 (no attempts, so none wasted).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 1
	}
	return num / den
}
