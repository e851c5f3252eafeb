package fed

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/fault"
	"cloudqc/internal/qlib"
	"cloudqc/internal/trace"
)

// swarmConfig is one drawn combination of features.
type swarmConfig struct {
	seed    int64
	shards  int
	mode    core.Mode
	preempt core.PreemptPolicy
	outages int // QPU outages per run; 0 runs fault-free
	traced  bool
	// drain is the drawn shard_drain on 2 or more shards (nil on one):
	// a single drain, so never of the last enabled shard. String leaves
	// it out, so subtest names stay those of the drain-free draw.
	drain *fault.Event
}

func (c swarmConfig) String() string {
	return fmt.Sprintf("seed%d/shards%d/%v/preempt-%v/outages%d/trace%v",
		c.seed, c.shards, c.mode, c.preempt, c.outages, c.traced)
}

// drawSwarmConfig draws a configuration from seed.
func drawSwarmConfig(seed int64) swarmConfig {
	rng := rand.New(rand.NewSource(seed))
	c := swarmConfig{
		seed:    seed,
		shards:  1 + rng.Intn(3),
		mode:    []core.Mode{core.BatchMode, core.FIFOMode, core.EDFMode, core.WFQMode}[rng.Intn(4)],
		preempt: []core.PreemptPolicy{core.PreemptOff, core.PreemptRescue, core.PreemptPriority}[rng.Intn(3)],
		traced:  rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		c.outages = 1 + rng.Intn(3)
	}
	if c.shards >= 2 {
		c.drain = &fault.Event{Kind: fault.KindShardDrain, Shard: rng.Intn(c.shards), From: 200 + rng.Float64()*2800}
	}
	return c
}

// swarmTemplates are the mid-size circuits a swarm stream draws from:
// 36 to 71 qubits on 10-QPU shards of 20 computing qubits each.
var swarmTemplates = []string{"wstate_n36", "qugan_n39", "adder_n64", "qaoa_n64", "knn_n67", "qugan_n71"}

// swarmJob is one job's fate in a swarm run.
type swarmJob struct {
	ID                      int
	Failed                  bool
	PlacedAt, Finished, JCT float64
	WaitTime                float64
	RemoteGates             int
}

// swarmOutcome is what a run's determinism is compared on.
type swarmOutcome struct {
	Jobs        []swarmJob
	Preempt     core.PreemptStats
	Faults      fault.Stats
	Transitions int
}

// swarmRun drives one configuration's stream through a federation
// whose shards share one CloudQC placer, checks the invariants as it
// goes, and returns the observable outcome.
func swarmRun(t *testing.T, c swarmConfig) swarmOutcome {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed * 7919))
	clouds := make([]*cloud.Cloud, c.shards)
	for i := range clouds {
		clouds[i] = cloud.NewRandom(10, 0.3, 20, 5, c.seed+int64(i))
	}
	cfg := Config{Shard: shardTemplate(c.seed, c.mode), Clouds: clouds}
	cfg.Shard.Preempt = c.preempt
	if c.outages > 0 {
		p := fault.OutageSchedule(10, c.outages, 200, 3000, 600, c.seed)
		for i := range p.Events {
			p.Events[i].Shard = i % c.shards
		}
		p.Recovery = fault.RecoveryRescue
		cfg.Faults = p
	}
	if c.drain != nil {
		if cfg.Faults == nil {
			cfg.Faults = &fault.Plan{}
		}
		cfg.Faults.Events = append(cfg.Faults.Events, *c.drain)
	}
	if c.traced {
		cfg.Trace = trace.New()
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	settles := make(map[int]int)
	last := make(map[int]core.JobStatus)
	transitions := 0
	f.SetOnTransition(func(shard int, tr core.Transition) {
		transitions++
		if tr.To.Settled() {
			settles[tr.JobID]++
		}
		// A running job leaves Running only by being checkpointed off
		// the cloud (preempted or evicted) or by settling.
		if last[tr.JobID] == core.StatusRunning {
			off := tr.To == core.StatusQueued && (tr.Reason == core.ReasonPreempted || tr.Reason == core.ReasonEvicted)
			if !off && !tr.To.Settled() {
				t.Fatalf("job %d: running → %v (%v) on shard %d at %v", tr.JobID, tr.To, tr.Reason, shard, tr.At)
			}
		}
		last[tr.JobID] = tr.To
	})
	checkCapacity := func(step string) {
		t.Helper()
		for s, cl := range clouds {
			for q := 0; q < cl.NumQPUs(); q++ {
				if u := cl.QPU(q).UsedComputing(); u < 0 || u > cl.QPU(q).Computing {
					t.Fatalf("%s: shard %d QPU %d uses %d of %d computing qubits", step, s, q, u, cl.QPU(q).Computing)
				}
			}
		}
	}

	var accepted []int
	arrival := 0.0
	for id := 0; id < 24; id++ {
		if err := f.StepUntil(arrival); err != nil {
			t.Fatal(err)
		}
		checkCapacity(fmt.Sprintf("step to %v", arrival))
		j := &core.Job{
			ID:       id,
			Circuit:  qlib.MustBuild(swarmTemplates[rng.Intn(len(swarmTemplates))]),
			Arrival:  arrival,
			Tenant:   rng.Intn(4),
			Priority: 1 + rng.Intn(3),
		}
		if rng.Intn(2) == 0 {
			j.Deadline = arrival + 300 + rng.Float64()*2000
		}
		if err := f.Submit(j); err == nil {
			accepted = append(accepted, id)
		}
		arrival += rng.ExpFloat64() * 150
	}
	res, err := f.Drain()
	if err != nil {
		t.Fatal(err)
	}
	checkCapacity("drain")
	for s, cl := range clouds {
		for q := 0; q < cl.NumQPUs(); q++ {
			if u := cl.QPU(q).UsedComputing(); u != 0 {
				t.Fatalf("after drain shard %d QPU %d still holds %d qubits", s, q, u)
			}
		}
	}

	if len(accepted) == 0 {
		t.Fatal("no job was accepted")
	}
	for _, id := range accepted {
		if settles[id] != 1 {
			t.Fatalf("job %d settled %d times", id, settles[id])
		}
	}
	if len(settles) != len(accepted) {
		t.Fatalf("%d ids settled, %d accepted", len(settles), len(accepted))
	}

	if c.traced {
		for _, tr := range cfg.Trace.Traces() {
			if !tr.Done {
				t.Fatalf("job %d trace never settled", tr.ID)
			}
			if tr.Failed {
				continue
			}
			// Local is derived as the remainder, so the phases sum to the
			// JCT up to rounding: the field-order sum can miss it by an
			// ulp, and for some phase values no Local hits it exactly.
			a := tr.Attr
			sum := a.Queue + a.Compile + a.Local + a.Network + a.Suspended
			if ulp := math.Nextafter(a.JCT, math.Inf(1)) - a.JCT; math.Abs(sum-a.JCT) > 2*ulp {
				t.Fatalf("job %d phases sum to %v, JCT %v (%+v)", tr.ID, sum, a.JCT, a)
			}
		}
	}

	ps, fs := f.PreemptStats(), f.FaultStats()
	if int64(ps.Resumes) > int64(ps.Preemptions)+fs.RescuedOutage+fs.RescuedDrain {
		t.Fatalf("resumes exceed preemptions + rescues: %+v, %+v", ps, fs)
	}
	if c.drain != nil && fs.ShardDrains != 1 {
		t.Fatalf("drawn drain %+v fired %d times", *c.drain, fs.ShardDrains)
	}

	out := swarmOutcome{Preempt: ps, Faults: fs, Transitions: transitions}
	for _, r := range res {
		out.Jobs = append(out.Jobs, swarmJob{
			ID: r.Job.ID, Failed: r.Failed, PlacedAt: r.PlacedAt, Finished: r.Finished,
			JCT: r.JCT, WaitTime: r.WaitTime, RemoteGates: r.RemoteGates,
		})
	}
	return out
}

// TestSwarmInvariants draws seeded feature combinations (shard count,
// admission mode, preemption policy, QPU outages, a shard drain on 2 or
// more shards, tracing) and checks the invariants that must hold across
// all of them: capacity stays within bounds at every step and is all
// free after a drain, every accepted job settles exactly once, a
// running job leaves Running only preempted, evicted or settled, a
// traced job's attribution sums to its JCT up to rounding, every resume
// follows a preemption or a rescue, a drawn drain fires once, and a
// same-seed rerun is identical.
func TestSwarmInvariants(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		c := drawSwarmConfig(seed)
		t.Run(c.String(), func(t *testing.T) {
			first := swarmRun(t, c)
			if again := swarmRun(t, c); !reflect.DeepEqual(first, again) {
				t.Fatalf("same-seed rerun differs:\n%+v\n%+v", first, again)
			}
			drain := "none"
			if c.drain != nil {
				drain = fmt.Sprintf("shard %d at %.0f", c.drain.Shard, c.drain.From)
			}
			t.Logf("%d jobs, preempt %+v, drain %s, rescued %d off outages and %d off drains",
				len(first.Jobs), first.Preempt, drain, first.Faults.RescuedOutage, first.Faults.RescuedDrain)
		})
	}
}
