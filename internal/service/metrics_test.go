package service

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudqc/internal/core"
)

// parseExposition splits a Prometheus text exposition into HELP/TYPE
// headers and samples, failing on any line that fits neither shape.
func parseExposition(t *testing.T, body string) (helps, types map[string]string, samples map[string][]float64) {
	t.Helper()
	helps, types = map[string]string{}, map[string]string{}
	samples = map[string][]float64{}
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("malformed HELP line %q", line)
			}
			helps[name] = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[name] = typ
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("sample %q has non-numeric value: %v", line, err)
		}
		samples[m[1]] = append(samples[m[1]], v)
	}
	return helps, types, samples
}

// TestMetricsEndpoint scrapes /metrics after real traffic — including a
// WAL, a quota-rejected submission, and settled jobs — and verifies the
// exposition parses, every declared family is present with HELP and
// TYPE, every sample belongs to a declared family, and the load-bearing
// counters carry the values the run produced.
func TestMetricsEndpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	srv, clock, _, _, _ := newWALServer(t, path)
	driveWALStream(t, srv, clock)
	clock.advance(2 * time.Second)
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rw.Code)
	}
	if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	helps, types, samples := parseExposition(t, rw.Body.String())

	for _, fam := range metricFamilies {
		if _, ok := helps[fam.name]; !ok {
			t.Errorf("family %s missing HELP", fam.name)
		}
		if got := types[fam.name]; got != fam.typ {
			t.Errorf("family %s has TYPE %q, want %q", fam.name, got, fam.typ)
		}
	}
	for name := range samples {
		if _, ok := types[name]; !ok {
			t.Errorf("sample %s has no TYPE header", name)
		}
	}

	want := map[string]float64{
		"cloudqcd_jobs_submitted_total": 12,
		"cloudqcd_jobs_settled_total":   12,
		"cloudqcd_backlog":              0,
		"cloudqcd_wal_enabled":          1,
	}
	for name, v := range want {
		got, ok := samples[name]
		if !ok || len(got) != 1 || got[0] != v {
			t.Errorf("%s = %v, want [%g]", name, got, v)
		}
	}
	// One fsync per accepted submission, each with measurable latency.
	if got := samples["cloudqcd_wal_fsyncs_total"]; len(got) != 1 || got[0] != 12 {
		t.Errorf("cloudqcd_wal_fsyncs_total = %v, want [12]", got)
	}
	if got := samples["cloudqcd_wal_fsync_seconds_total"]; len(got) != 1 || got[0] <= 0 {
		t.Errorf("cloudqcd_wal_fsync_seconds_total = %v, want one positive sample", got)
	}
	if got := samples["cloudqcd_wal_records_total"]; len(got) != 1 || got[0] < 24 {
		t.Errorf("cloudqcd_wal_records_total = %v, want at least 24 (12 jobs + their steps)", got)
	}
	if got, want := samples["cloudqcd_plan_cache_infeasible_hits_total"], srv.f.InfeasibleHits(); len(got) != 1 || got[0] != float64(want) {
		t.Errorf("cloudqcd_plan_cache_infeasible_hits_total = %v, want [%d]", got, want)
	}
}

// TestMetricsDocCoverage pins /metrics to docs/OPERATIONS.md in both
// directions: every exposed family is documented in the metrics
// reference table, and every cloudqcd_* name the doc mentions is still
// served. Renaming a series without updating the operator doc — or
// documenting a ghost — fails here.
func TestMetricsDocCoverage(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatalf("docs/OPERATIONS.md unreadable: %v", err)
	}
	text := string(doc)
	declared := map[string]bool{}
	for _, fam := range metricFamilies {
		declared[fam.name] = true
		if !strings.Contains(text, fam.name) {
			t.Errorf("docs/OPERATIONS.md does not document metric %s", fam.name)
		}
	}
	for _, name := range regexp.MustCompile(`cloudqcd_[a-z0-9_]+`).FindAllString(text, -1) {
		if !declared[name] {
			t.Errorf("docs/OPERATIONS.md documents %s, which /metrics does not serve", name)
		}
	}
}

// TestLoadShedding drives the two-watermark overload ladder with a
// frozen clock (submissions pile up as pending): past DegradeBacklog
// admission degrades WFQ→FIFO, past ShedBacklog submissions bounce with
// 503 + Retry-After, and once the backlog drains both effects unwind.
func TestLoadShedding(t *testing.T) {
	srv, ts, clock := newTestServer(t, Config{DegradeBacklog: 2, ShedBacklog: 4}, 7, core.WFQMode)
	degradedAt := func() float64 {
		_, _, samples := parseExposition(t, rawGET(t, srv, "/metrics"))
		v := samples["cloudqcd_admission_degraded"]
		if len(v) != 1 {
			t.Fatalf("cloudqcd_admission_degraded samples %v", v)
		}
		return v[0]
	}

	// Backlogs 0..3 at submission time: accepted; degrade trips at 2.
	for i := 0; i < 4; i++ {
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", SubmitRequest{Tenant: i % 2, Priority: 1, QASM: ghz3QASM}, nil); code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
	}
	if got := degradedAt(); got != 1 {
		t.Fatalf("admission_degraded = %g after backlog 2, want 1", got)
	}

	// Backlog 4 = the shed watermark: 503 with a Retry-After hint.
	req := SubmitRequest{Tenant: 0, Priority: 1, QASM: ghz3QASM}
	code, hdr := doJSON(t, "POST", ts.URL+"/v1/jobs", req, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit past shed watermark: %d, want 503", code)
	}
	if ra := hdr.Get("Retry-After"); ra == "" {
		t.Fatal("503 carries no Retry-After")
	} else if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Fatalf("Retry-After %q, want integer >= 1", ra)
	}
	_, _, samples := parseExposition(t, rawGET(t, srv, "/metrics"))
	if got := samples["cloudqcd_jobs_shed_total"]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("cloudqcd_jobs_shed_total = %v, want [1]", got)
	}
	var stats StatsResponse
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK || stats.Shed != 1 {
		t.Fatalf("stats shed = %d (code %d), want 1", stats.Shed, code)
	}

	// Let the backlog drain; the next submission re-arms WFQ and lands.
	clock.advance(10 * time.Second)
	rawGET(t, srv, "/v1/stats")
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", SubmitRequest{Tenant: 1, Priority: 1, QASM: ghz3QASM}, nil); code != http.StatusAccepted {
		t.Fatalf("post-drain submit: %d", code)
	}
	if got := degradedAt(); got != 0 {
		t.Fatalf("admission_degraded = %g after drain, want 0", got)
	}
}
