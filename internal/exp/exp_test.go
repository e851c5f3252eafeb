package exp

import (
	"slices"
	"strings"
	"testing"

	"cloudqc/internal/place"
	"cloudqc/internal/qlib"
	"cloudqc/internal/workload"
)

// fastOpts keeps experiment unit tests quick while exercising the full
// pipeline.
func fastOpts() Options {
	o := Defaults()
	o.Reps = 1
	return o
}

func TestTableIMentionsAllOps(t *testing.T) {
	out := TableI()
	for _, want := range []string{"Single-qubit", "CX and CZ", "Measure", "EPR preparation", "10 CX"} {
		if !strings.Contains(out, want) {
			t.Fatalf("TableI missing %q:\n%s", want, out)
		}
	}
}

func TestTable2CoversPaperRows(t *testing.T) {
	rows := Table2()
	if len(rows) != 21 {
		t.Fatalf("Table2 rows = %d, want 21", len(rows))
	}
	for _, r := range rows {
		if r.GenTwoQubit <= 0 || r.GenDepth <= 0 {
			t.Fatalf("row %s has degenerate generated stats: %+v", r.Name, r)
		}
	}
	out := RenderTable2(rows)
	if !strings.Contains(out, "qft_n160") || !strings.Contains(out, "25440") {
		t.Fatalf("render missing expected cells:\n%s", out)
	}
}

func TestTable3SmallSubset(t *testing.T) {
	rows, err := Table3(fastOpts(), []string{"ghz_n127", "ising_n66"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, m := range Table3Methods() {
			if _, ok := r.Remote[m]; !ok {
				t.Fatalf("row %s missing method %s", r.Circuit, m)
			}
		}
		// Paper's headline: CloudQC beats Random on structured circuits.
		if r.Remote["CloudQC"] > r.Remote["Random"] {
			t.Errorf("%s: CloudQC %d worse than Random %d",
				r.Circuit, r.Remote["CloudQC"], r.Remote["Random"])
		}
	}
	out := RenderTable3(rows)
	if !strings.Contains(out, "ghz_n127") || !strings.Contains(out, "CloudQC-BFS") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestOverheadVsCapacitySkipsInfeasiblePoints(t *testing.T) {
	// 10 qubits/QPU x 20 QPUs = 200 < 127? no, fits; use a capacity the
	// circuit cannot fit to confirm skipping: qft_n160 at 10x20=200 fits
	// too, so use a tiny sweep value via custom opts.
	o := fastOpts()
	series, err := OverheadVsCapacity(o, "ghz_n127", []int{5, 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		for _, x := range s.X {
			if x == 5 {
				t.Fatalf("capacity 5 (cloud 100 < 127 qubits) should be skipped for %s", s.Method)
			}
		}
		if len(s.X) != 1 {
			t.Fatalf("series %s X = %v, want just capacity 20", s.Method, s.X)
		}
	}
}

func TestOverheadVsCapacityOrdering(t *testing.T) {
	series, err := OverheadVsCapacity(fastOpts(), "qugan_n111", []int{20, 50})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for _, s := range series {
		byName[s.Method] = s.Y
	}
	if len(byName) != 5 {
		t.Fatalf("methods = %v", byName)
	}
	// CloudQC should beat Random at every swept capacity (paper Fig. 6).
	for i := range byName["CloudQC"] {
		if byName["CloudQC"][i] > byName["Random"][i] {
			t.Errorf("capacity idx %d: CloudQC %v worse than Random %v",
				i, byName["CloudQC"][i], byName["Random"][i])
		}
	}
}

func TestJCTVsCommQubitsShape(t *testing.T) {
	series, err := JCTVsCommQubits(fastOpts(), "qugan_n111", []int{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("policies = %d", len(series))
	}
	for _, s := range series {
		if len(s.X) != 2 || len(s.Y) != 2 {
			t.Fatalf("series %s: %v %v", s.Method, s.X, s.Y)
		}
		if s.Y[0] <= 0 {
			t.Fatalf("series %s: non-positive JCT", s.Method)
		}
	}
}

func TestJCTVsEPRProbDecreases(t *testing.T) {
	o := fastOpts()
	o.Reps = 3
	series, err := JCTVsEPRProb(o, "qugan_n111", []float64{0.1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if s.Y[1] >= s.Y[0] {
			t.Errorf("%s: JCT at p=0.5 (%v) should beat p=0.1 (%v)", s.Method, s.Y[1], s.Y[0])
		}
	}
}

func TestFig22RelativeToCloudQC(t *testing.T) {
	rows, err := Fig22(fastOpts(), []string{"vqe_uccsd_n28"})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Relative["CloudQC"] != 1 {
		t.Fatalf("CloudQC relative JCT = %v, want 1", r.Relative["CloudQC"])
	}
	for _, m := range []string{"Greedy", "Average", "Random"} {
		if r.Relative[m] <= 0 {
			t.Fatalf("%s relative JCT = %v", m, r.Relative[m])
		}
	}
	out := RenderFig22(rows)
	if !strings.Contains(out, "vqe_uccsd_n28") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestMultiTenantCDFSmall(t *testing.T) {
	series, err := MultiTenantCDF(fastOpts(), workload.Qugan(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("methods = %d", len(series))
	}
	for _, s := range series {
		if len(s.JCTs) != 4 {
			t.Fatalf("%s: jobs = %d, want 4", s.Method, len(s.JCTs))
		}
		if len(s.Points) == 0 || s.Points[len(s.Points)-1].P != 1 {
			t.Fatalf("%s: malformed CDF %v", s.Method, s.Points)
		}
	}
	out := RenderCDF(series)
	for _, m := range MultiTenantMethods() {
		if !strings.Contains(out, m) {
			t.Fatalf("render missing %s:\n%s", m, out)
		}
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	o := Defaults()
	if o.QPUs != 20 || o.Computing != 20 || o.Comm != 5 || o.EdgeProb != 0.3 || o.EPRProb != 0.3 {
		t.Fatalf("Defaults = %+v, want the paper's Sec. VI-A setting", o)
	}
}

func TestWithDefaultsFillsZeroFields(t *testing.T) {
	o := Options{Seed: 9}.withDefaults()
	if o.QPUs != 20 || o.Reps != 3 || o.Seed != 9 {
		t.Fatalf("withDefaults = %+v", o)
	}
}

func TestWithDefaultsBackfillsSeed(t *testing.T) {
	// A zero-valued Options must run with the documented default seed,
	// not silently with seed 0.
	o := Options{}.withDefaults()
	if o.Seed != Defaults().Seed {
		t.Fatalf("Seed = %d, want default %d", o.Seed, Defaults().Seed)
	}
	if o.Workers != 0 {
		t.Fatalf("Workers = %d, want 0 (resolved to CPU count at run time)", o.Workers)
	}
}

func TestFmtXSentinel(t *testing.T) {
	cases := map[float64]string{
		-1:   "-1",
		0:    "0",
		0.15: "0.15",
		0.1:  "0.10",
		1:    "1",
		5:    "5",
	}
	for x, want := range cases {
		if got := fmtX(x); got != want {
			t.Errorf("fmtX(%v) = %q, want %q", x, got, want)
		}
	}
}

func TestRenderSweepRaggedSeries(t *testing.T) {
	// One method missing part of the sweep must not panic; its missing
	// cells render as "-".
	s := []SweepSeries{
		{Method: "Short", X: []float64{1}, Y: []float64{10}},
		{Method: "Full", X: []float64{1, 2}, Y: []float64{30, 40}},
	}
	out := RenderSweep("x", s)
	if !strings.Contains(out, "40") || !strings.Contains(out, "-") {
		t.Fatalf("ragged render:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Fatalf("want header + rule + 2 rows:\n%s", out)
	}
}

func TestRenderSweepAlignsByXValue(t *testing.T) {
	// A mid-sweep gap must leave "-" in the gap row, not shift later
	// values onto the wrong x.
	s := []SweepSeries{
		{Method: "Gappy", X: []float64{1, 3}, Y: []float64{10, 30}},
		{Method: "Full", X: []float64{1, 2, 3}, Y: []float64{70, 80, 90}},
	}
	lines := strings.Split(strings.TrimSpace(RenderSweep("x", s)), "\n")
	if len(lines) != 5 {
		t.Fatalf("want header + rule + 3 rows:\n%v", lines)
	}
	for _, want := range []struct{ row, cells string }{
		{lines[2], "1  10  70"},
		{lines[3], "2  -  80"},
		{lines[4], "3  30  90"},
	} {
		if strings.Join(strings.Fields(want.row), "  ") != want.cells {
			t.Errorf("row %q, want cells %q", want.row, want.cells)
		}
	}
}

func TestNegativeRepsFallBackToDefault(t *testing.T) {
	// A negative -reps must not panic the experiment engine (it used to
	// reach make([]T, n) with n < 0); it degrades to the default.
	o := Options{Reps: -1}.withDefaults()
	if o.Reps != Defaults().Reps {
		t.Fatalf("Reps = %d, want default %d", o.Reps, Defaults().Reps)
	}
	if _, err := runIndexed(4, -3, func(int) (int, error) { return 0, nil }); err != nil {
		t.Fatalf("negative n should be a no-op, got %v", err)
	}
}

func TestRenderSweepLayout(t *testing.T) {
	s := []SweepSeries{
		{Method: "A", X: []float64{1, 2}, Y: []float64{10, 20}},
		{Method: "B", X: []float64{1, 2}, Y: []float64{30, 40}},
	}
	out := RenderSweep("x", s)
	if !strings.Contains(out, "A") || !strings.Contains(out, "40") {
		t.Fatalf("render:\n%s", out)
	}
	if RenderSweep("x", nil) != "" {
		t.Fatal("empty series should render empty")
	}
}

// TestPlacersUseOptionsModel: the CloudQC placers the experiments build
// score remote latency with the options' EPR model, the one their
// controllers run. On the options' empty cloud qft_n160 places
// differently at p = 0.9 than at the default 0.3.
func TestPlacersUseOptionsModel(t *testing.T) {
	o := Defaults()
	o.EPRProb = 0.9
	circ := qlib.MustBuild("qft_n160")
	placeWith := func(p place.Placer) []int {
		pl, err := p.Place(o.cloudFor(), circ)
		if err != nil {
			t.Fatal(err)
		}
		return pl.QubitToQPU
	}
	at := func(prob float64) []int {
		cfg := place.DefaultConfig()
		cfg.Seed = o.Seed
		cfg.Model.SuccessProb = prob
		return placeWith(place.NewCloudQC(cfg))
	}
	want := at(0.9)
	if slices.Equal(want, at(0.3)) {
		t.Fatal("qft_n160 places the same at p = 0.9 and 0.3: the test cannot tell them apart")
	}
	mc, err := methodConfig("CloudQC", o, o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := newSchedFixture(o, "qft_n160")
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]int{
		"baseConfig":      placeWith(o.baseConfig(o.Seed).Placer),
		"methodConfig":    placeWith(mc.Placer),
		"placersFor":      placeWith(placersFor(o)[4]),
		"newSchedFixture": fx.assign,
	} {
		if !slices.Equal(got, want) {
			t.Errorf("%s placed qft_n160 at %v, want the p = 0.9 placement %v", name, got, want)
		}
	}
}
