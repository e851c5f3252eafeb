package sched

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
	"cloudqc/internal/qlib"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/single_job_runs.txt from the current code")

const singleJobGoldenPath = "testdata/single_job_runs.txt"

// singleJobEntries are the single-job entry points the golden table
// pins, each at the default SuccessProb so every round draws from the
// RNG and the table fixes the whole draw sequence through the loop.
var singleJobEntries = []struct {
	name string
	run  func(*RemoteDAG, *cloud.Cloud, Policy, *rand.Rand) (Result, error)
}{
	{"run", func(d *RemoteDAG, cl *cloud.Cloud, p Policy, rng *rand.Rand) (Result, error) {
		return Run(d, cl, epr.DefaultModel(), p, rng)
	}},
	{"multipath2", func(d *RemoteDAG, cl *cloud.Cloud, p Policy, rng *rand.Rand) (Result, error) {
		return RunMultipath(d, cl, epr.DefaultModel(), p, rng, 2)
	}},
	{"fidelity", func(d *RemoteDAG, cl *cloud.Cloud, p Policy, rng *rand.Rand) (Result, error) {
		return RunFidelity(d, cl, epr.DefaultFidelityModel(), p, rng)
	}},
}

// singleJobRows runs every entry point × circuit × policy × seed and
// formats one row per run: its name, the JCT's IEEE-754 bits, and the
// round count. The circuits are spread over an 8-QPU ring with a
// stride-3 qubit assignment, so remote gates span one to four hops and
// multipath has two disjoint routes to choose from.
func singleJobRows(t *testing.T) []string {
	t.Helper()
	cl := cloud.New(graph.Ring(8), 20, 3)
	policies := []Policy{CloudQCPolicy{}, AveragePolicy{}}
	var rows []string
	for _, name := range []string{"ising_n34", "knn_n67", "qugan_n71"} {
		c := qlib.MustBuild(name)
		assign := make([]int, c.NumQubits())
		for q := range assign {
			assign[q] = q * 3 % cl.NumQPUs()
		}
		d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
		for _, e := range singleJobEntries {
			for _, p := range policies {
				for seed := int64(1); seed <= 2; seed++ {
					res, err := e.run(d, cl, p, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatalf("%s/%s/%s/%d: %v", e.name, name, p.Name(), seed, err)
					}
					rows = append(rows, fmt.Sprintf("%s/%s/%s/%d %016x %d",
						e.name, name, p.Name(), seed, math.Float64bits(res.JCT), res.Rounds))
				}
			}
		}
	}
	return rows
}

// TestSingleJobGolden pins Run, RunMultipath and RunFidelity against
// testdata/single_job_runs.txt: JCT to the bit and the round count. A
// refactor of the single-job round loop that claims identical behavior
// must leave the table untouched; an intended behavior change
// regenerates it with
//
//	go test ./internal/sched -run TestSingleJobGolden -update
func TestSingleJobGolden(t *testing.T) {
	rows := singleJobRows(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(singleJobGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(singleJobGoldenPath, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	fh, err := os.Open(singleJobGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer fh.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = val
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rows) {
		t.Errorf("golden table has %d rows, the test produces %d", len(want), len(rows))
	}
	for _, r := range rows {
		name, got, _ := strings.Cut(r, " ")
		if want[name] != got {
			t.Errorf("%s: got %s, golden %s", name, got, want[name])
		}
	}
}
