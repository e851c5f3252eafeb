package fault

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzFaultPlanLoad writes arbitrary bytes as a plan file (the -faults
// flag's input) and checks that Load never panics, that a plan it
// accepts survives a marshal and reload unchanged, and that splitting
// it with ForShard and Drains never panics, with Drains in (From,
// Shard) order.
func FuzzFaultPlanLoad(f *testing.F) {
	for _, p := range []*Plan{
		{
			Recovery: RecoveryNone, RouteAround: true, RetryBudget: 9,
			Events: []Event{
				{Kind: KindQPUOutage, Shard: 0, QPU: 1, From: 0, To: 10},
				{Kind: KindLinkDegrade, Shard: 1, U: 0, V: 1, Scale: 0.5, From: 0, To: 10},
				{Kind: KindShardDrain, Shard: 0, From: 50},
				{Kind: KindQPUOutage, Shard: 1, QPU: 2, From: 5, To: 15},
			},
		},
		{Events: []Event{
			{Kind: KindShardDrain, Shard: 2, From: 100},
			{Kind: KindQPUOutage, Shard: 0, QPU: 0, From: 0, To: 10},
			{Kind: KindShardDrain, Shard: 1, From: 100},
			{Kind: KindShardDrain, Shard: 3, From: 20},
		}},
		OutageSchedule(8, 5, 0, 10000, 400, 42),
	} {
		data, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{
		"recovery": "rescue",
		"route_around": true,
		"events": [
			{"kind": "qpu_outage", "qpu": 2, "from": 100, "to": 500},
			{"kind": "link_degrade", "u": 0, "v": 1, "scale": 0.25, "from": 0, "to": 50},
			{"kind": "shard_drain", "shard": 1, "from": 900}
		]
	}`))
	f.Add([]byte("{not json"))
	f.Add([]byte(`{"events": [{"kind": "qpu_outage", "qpu": 0, "from": 5, "to": 5}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "plan.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := Load(path)
		if err != nil {
			return
		}
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan does not marshal: %v", err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := Load(path)
		if err != nil {
			t.Fatalf("re-marshaled plan rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("round trip changed the plan:\n got %+v\nwant %+v", *again, *p)
		}
		shards := map[int]bool{0: true}
		for _, e := range p.Events {
			shards[e.Shard] = true
		}
		for s := range shards {
			p.ForShard(s)
		}
		ds := p.Drains()
		for i := 1; i < len(ds); i++ {
			a, b := ds[i-1], ds[i]
			if b.From < a.From || (b.From == a.From && b.Shard < a.Shard) {
				t.Fatalf("drains out of (From, Shard) order at %d: %+v then %+v", i, a, b)
			}
		}
	})
}
