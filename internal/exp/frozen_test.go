package exp

import (
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"cloudqc/internal/core"
	"cloudqc/internal/workload"
)

var updateFrozen = flag.Bool("update", false, "rewrite testdata/figure_runs.txt from the current code")

const frozenPath = "testdata/figure_runs.txt"

// dumpValue writes v on one line with every float64 as its IEEE-754
// bits, so a one-ulp drift in any row field changes the text.
func dumpValue(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		fmt.Fprintf(b, "%x", math.Float64bits(v.Float()))
	case reflect.Struct:
		b.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(b, "%s:", v.Type().Field(i).Name)
			dumpValue(b, v.Field(i))
		}
		b.WriteByte('}')
	case reflect.Slice:
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			dumpValue(b, v.Index(i))
		}
		b.WriteByte(']')
	default:
		fmt.Fprintf(b, "%v", v.Interface())
	}
}

// frozenFigures renders every controller-driven figure's rows at small
// options: one "# name" header per figure, then one line per row. The
// 6-QPU cloud keeps the table cheap (placement compiles are nearly all
// of its cost) while jobs still queue, get preempted and get rescued.
func frozenFigures(t *testing.T, workers int) string {
	t.Helper()
	o := Defaults()
	o.QPUs, o.Computing = 6, 30
	o.Reps = 2
	o.Workers = workers
	ias := []float64{400, 3000}
	w := workload.Qugan()
	figures := []struct {
		name string
		run  func() (any, error)
	}{
		{"SLO", func() (any, error) { return SLO(o, "poisson", 2, ias) }},
		{"Preemption", func() (any, error) { return Preemption(o, "poisson", 2, ias) }},
		{"Faults", func() (any, error) { return Faults(o, "poisson", 2, []int{2, 6}) }},
		{"Attribution", func() (any, error) { return Attribution(o, "poisson", 2, ias) }},
		{"Online", func() (any, error) { return Online(o, "poisson", 4, ias, core.FIFOMode) }},
		{"IncomingMode", func() (any, error) { return IncomingMode(o, w, 4, ias) }},
		{"AblationBatchOrder", func() (any, error) { return AblationBatchOrder(o, w, 4) }},
		{"MultiTenantCDF", func() (any, error) { return MultiTenantCDF(o, w, 2, 4) }},
		{"Federation", func() (any, error) { return Federation(o, []int{1, 2}, 2, core.WFQMode) }},
	}
	var b strings.Builder
	for _, f := range figures {
		rows, err := f.run()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		fmt.Fprintf(&b, "# %s\n", f.name)
		rv := reflect.ValueOf(rows)
		for i := 0; i < rv.Len(); i++ {
			dumpValue(&b, rv.Index(i))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestFiguresMatchFrozenRuns pins every controller-driven figure's rows,
// bit for bit and at one worker and at four, to testdata/figure_runs.txt.
// The table was recorded from the per-figure run loops the shared
// harness replaced, so a harness change must match it, not regenerate it.
func TestFiguresMatchFrozenRuns(t *testing.T) {
	if *updateFrozen {
		if err := os.WriteFile(frozenPath, []byte(frozenFigures(t, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(frozenPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	for _, workers := range []int{1, 4} {
		got := strings.Split(frozenFigures(t, workers), "\n")
		if len(got) != len(wantLines) {
			t.Fatalf("workers=%d: %d lines, frozen table has %d", workers, len(got), len(wantLines))
		}
		for i := range got {
			if got[i] != wantLines[i] {
				t.Fatalf("workers=%d: line %d differs\n got: %s\nwant: %s", workers, i+1, got[i], wantLines[i])
			}
		}
	}
}
