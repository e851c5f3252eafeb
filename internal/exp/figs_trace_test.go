package exp

import (
	"math"
	"reflect"
	"testing"

	"cloudqc/internal/workload"
)

func TestAttributionRows(t *testing.T) {
	const perTenant = 2
	ias := []float64{500, 4000}
	run := func(workers int) []AttributionRow {
		o := Defaults()
		o.QPUs, o.Computing = 6, 30
		o.Reps = 2
		o.Workers = workers
		rows, err := Attribution(o, "poisson", perTenant, ias)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	rows := run(1)

	workloads, modes := workload.All(), attrModes()
	if want := len(workloads) * len(ias) * len(modes); len(rows) != want {
		t.Fatalf("%d rows, want %d workloads × %d rates × %d modes", len(rows), len(workloads), len(ias), len(modes))
	}
	i := 0
	for _, w := range workloads {
		for _, ia := range ias {
			for _, m := range modes {
				r := rows[i]
				i++
				if r.Workload != w.Name || r.MeanInterarrival != ia || r.Mode != m.String() {
					t.Fatalf("row %d is (%s, %v, %s), want (%s, %v, %s)",
						i-1, r.Workload, r.MeanInterarrival, r.Mode, w.Name, ia, m)
				}
				// Three tenants submit perTenant jobs each, in every rep.
				if got, want := r.Completed+r.Failed, 3*perTenant*2; got != want {
					t.Fatalf("row %+v settles %d jobs, want %d", r, got, want)
				}
				a := r.Attr
				sum := a.Queue + a.Compile + a.Local + a.Network + a.Suspended
				if !(a.JCT > 0) || math.Abs(sum-a.JCT) > 1e-9*a.JCT {
					t.Fatalf("row %+v: phases sum to %v, JCT %v", r, sum, a.JCT)
				}
			}
		}
	}
	if par := run(4); !reflect.DeepEqual(par, rows) {
		t.Fatalf("rows differ between 1 and 4 workers:\n%+v\n%+v", rows, par)
	}
}
