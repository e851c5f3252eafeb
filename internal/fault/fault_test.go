package fault

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestEventValidate(t *testing.T) {
	good := []Event{
		{Kind: KindQPUOutage, QPU: 0, From: 0, To: 100},
		{Kind: KindQPUOutage, Shard: 3, QPU: 7, From: 50, To: 51},
		{Kind: KindLinkDegrade, U: 0, V: 1, Scale: 0, From: 0, To: 10},
		{Kind: KindLinkDegrade, U: 2, V: 5, Scale: 1, From: 5, To: 6},
		{Kind: KindShardDrain, Shard: 1, From: 0},
		{Kind: KindShardDrain, From: 1e9}, // To is ignored for drains
	}
	for i, e := range good {
		if err := e.Validate(); err != nil {
			t.Fatalf("good event %d rejected: %v", i, err)
		}
	}
	bad := []Event{
		{Kind: "meteor_strike", From: 0},
		{Kind: KindQPUOutage, QPU: -1, From: 0, To: 10},
		{Kind: KindQPUOutage, QPU: 0, From: 10, To: 10}, // empty interval
		{Kind: KindQPUOutage, QPU: 0, From: 10, To: 5},  // inverted
		{Kind: KindQPUOutage, QPU: 0, From: -1, To: 5},  // negative time
		{Kind: KindQPUOutage, Shard: -1, QPU: 0, From: 0, To: 5},
		{Kind: KindLinkDegrade, U: 0, V: 0, Scale: 0.5, From: 0, To: 5},  // self-loop
		{Kind: KindLinkDegrade, U: -1, V: 1, Scale: 0.5, From: 0, To: 5}, // negative endpoint
		{Kind: KindLinkDegrade, U: 0, V: 1, Scale: -0.1, From: 0, To: 5}, // negative scale
		{Kind: KindLinkDegrade, U: 0, V: 1, Scale: 1.5, From: 0, To: 5},  // amplifying
		{Kind: KindLinkDegrade, U: 0, V: 1, Scale: 0.5, From: 5, To: 5},
		{Kind: KindQPUOutage, QPU: 0, From: 0, To: math.NaN()}, // NaN end
		{Kind: KindLinkDegrade, U: 0, V: 1, Scale: 0.5, From: 0, To: math.NaN()},
		{Kind: KindShardDrain, From: -2},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Fatalf("bad event %d accepted: %+v", i, e)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Fatalf("nil plan rejected: %v", err)
	}
	ok := &Plan{Recovery: RecoveryRescue, RouteAround: true, RetryBudget: 3,
		Events: []Event{{Kind: KindQPUOutage, QPU: 1, From: 0, To: 10}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if err := (&Plan{Recovery: "mercy"}).Validate(); err == nil {
		t.Fatal("unknown recovery policy accepted")
	}
	if err := (&Plan{RetryBudget: -1}).Validate(); err == nil {
		t.Fatal("negative retry budget accepted")
	}
	if err := (&Plan{Events: []Event{{Kind: "nope"}}}).Validate(); err == nil {
		t.Fatal("plan with invalid event accepted")
	}
}

func TestRescueAndBudget(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Rescue() {
		t.Fatal("nil plan must default to rescue")
	}
	if nilPlan.Budget() != DefaultRetryBudget {
		t.Fatalf("nil plan budget %d, want %d", nilPlan.Budget(), DefaultRetryBudget)
	}
	if !(&Plan{}).Rescue() || !(&Plan{Recovery: RecoveryRescue}).Rescue() {
		t.Fatal("empty/rescue recovery must rescue")
	}
	if (&Plan{Recovery: RecoveryNone}).Rescue() {
		t.Fatal("none recovery must not rescue")
	}
	if got := (&Plan{}).Budget(); got != DefaultRetryBudget {
		t.Fatalf("zero budget resolved to %d, want %d", got, DefaultRetryBudget)
	}
	if got := (&Plan{RetryBudget: 7}).Budget(); got != 7 {
		t.Fatalf("explicit budget resolved to %d, want 7", got)
	}
}

func TestForShard(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.ForShard(0) != nil {
		t.Fatal("nil plan must split to nil")
	}
	p := &Plan{
		Recovery: RecoveryNone, RouteAround: true, RetryBudget: 9,
		Events: []Event{
			{Kind: KindQPUOutage, Shard: 0, QPU: 1, From: 0, To: 10},
			{Kind: KindLinkDegrade, Shard: 1, U: 0, V: 1, Scale: 0.5, From: 0, To: 10},
			{Kind: KindShardDrain, Shard: 0, From: 50},
			{Kind: KindQPUOutage, Shard: 1, QPU: 2, From: 5, To: 15},
		},
	}
	s0 := p.ForShard(0)
	if len(s0.Events) != 1 || s0.Events[0].Kind != KindQPUOutage || s0.Events[0].QPU != 1 {
		t.Fatalf("shard 0 slice %+v", s0.Events)
	}
	// The recovery knobs ride along with every shard slice.
	if s0.Recovery != RecoveryNone || !s0.RouteAround || s0.RetryBudget != 9 {
		t.Fatalf("shard 0 slice lost the knobs: %+v", *s0)
	}
	if s1 := p.ForShard(1); len(s1.Events) != 2 {
		t.Fatalf("shard 1 slice %+v", s1.Events)
	}
	// A shard with no events (drains don't count) stays on the nil path.
	if p.ForShard(2) != nil {
		t.Fatal("eventless shard must split to nil")
	}
}

func TestDrainsOrdered(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Drains() != nil {
		t.Fatal("nil plan must have nil drains")
	}
	p := &Plan{Events: []Event{
		{Kind: KindShardDrain, Shard: 2, From: 100},
		{Kind: KindQPUOutage, Shard: 0, QPU: 0, From: 0, To: 10},
		{Kind: KindShardDrain, Shard: 1, From: 100},
		{Kind: KindShardDrain, Shard: 3, From: 20},
	}}
	ds := p.Drains()
	if len(ds) != 3 {
		t.Fatalf("got %d drains, want 3", len(ds))
	}
	// Ordered by (From, Shard): the tie at 100 breaks by shard index.
	want := []struct {
		shard int
		from  float64
	}{{3, 20}, {1, 100}, {2, 100}}
	for i, w := range want {
		if ds[i].Shard != w.shard || ds[i].From != w.from {
			t.Fatalf("drain %d = shard %d @ %v, want shard %d @ %v",
				i, ds[i].Shard, ds[i].From, w.shard, w.from)
		}
	}
}

func TestOutageSchedule(t *testing.T) {
	p := OutageSchedule(8, 5, 0, 10000, 400, 42)
	if p == nil || len(p.Events) != 5 {
		t.Fatalf("schedule %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	for i, e := range p.Events {
		if e.Kind != KindQPUOutage || e.QPU < 0 || e.QPU >= 8 {
			t.Fatalf("event %d: %+v", i, e)
		}
		if e.From < 0 || e.From >= 10000 || e.To != e.From+400 {
			t.Fatalf("event %d interval [%v, %v)", i, e.From, e.To)
		}
		if i > 0 && e.From <= p.Events[i-1].From {
			t.Fatalf("events not spread: %v after %v", e.From, p.Events[i-1].From)
		}
	}
	if !reflect.DeepEqual(p, OutageSchedule(8, 5, 0, 10000, 400, 42)) {
		t.Fatal("schedule not deterministic")
	}
	if reflect.DeepEqual(p, OutageSchedule(8, 5, 0, 10000, 400, 43)) {
		t.Fatal("schedule ignores the seed")
	}
	qpus := map[int]bool{}
	for _, e := range OutageSchedule(8, 16, 0, 10000, 100, 1).Events {
		qpus[e.QPU] = true
	}
	if len(qpus) < 2 {
		t.Fatalf("16 outages piled onto %d QPU(s)", len(qpus))
	}
	for _, p := range []*Plan{
		OutageSchedule(8, 0, 0, 100, 10, 1),
		OutageSchedule(0, 5, 0, 100, 10, 1),
		OutageSchedule(8, 5, 100, 100, 10, 1),
	} {
		if p != nil {
			t.Fatalf("degenerate schedule non-nil: %+v", p)
		}
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(good, []byte(`{
		"recovery": "rescue",
		"route_around": true,
		"events": [
			{"kind": "qpu_outage", "qpu": 2, "from": 100, "to": 500},
			{"kind": "link_degrade", "u": 0, "v": 1, "scale": 0.25, "from": 0, "to": 50},
			{"kind": "shard_drain", "shard": 1, "from": 900}
		]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Load(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 3 || !p.RouteAround || !p.Rescue() {
		t.Fatalf("loaded plan %+v", *p)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
	mangled := filepath.Join(dir, "mangled.json")
	if err := os.WriteFile(mangled, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(mangled); err == nil {
		t.Fatal("unparseable plan loaded")
	}
	invalid := filepath.Join(dir, "invalid.json")
	if err := os.WriteFile(invalid, []byte(`{"events": [{"kind": "qpu_outage", "qpu": 0, "from": 5, "to": 5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(invalid); err == nil {
		t.Fatal("invalid plan loaded")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{QPUOutages: 1, LinkDegrades: 2, ShardDrains: 3, RescuedOutage: 4,
		RescuedDrain: 5, FailedOutage: 6, Retries: 7, Reroutes: 8, RetryExhausted: 9}
	b := a
	b.Add(a)
	want := Stats{QPUOutages: 2, LinkDegrades: 4, ShardDrains: 6, RescuedOutage: 8,
		RescuedDrain: 10, FailedOutage: 12, Retries: 14, Reroutes: 16, RetryExhausted: 18}
	if b != want {
		t.Fatalf("Add: got %+v, want %+v", b, want)
	}
}
