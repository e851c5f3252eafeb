package service

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudqc/internal/core"
)

// TestAPIDocCoverage pins docs/API.md to the routes the server actually
// registers: every "METHOD PATTERN" pair from the routes table must
// appear verbatim in the doc, so adding an endpoint without documenting
// it fails CI. The fabricated-route control proves the check has teeth.
func TestAPIDocCoverage(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatalf("docs/API.md unreadable: %v", err)
	}
	text := string(doc)
	srv, _, _, _, _ := newWALServer(t, "")
	routes := srv.routes()
	if len(routes) < 7 {
		t.Fatalf("routes table lists %d endpoints, want at least 7", len(routes))
	}
	for _, rt := range routes {
		if sig := rt.method + " " + rt.pattern; !strings.Contains(text, sig) {
			t.Errorf("docs/API.md does not document %q", sig)
		}
	}
	// Control: the detection must be able to fail. If this fabricated
	// route reads as documented, the Contains check above is vacuous.
	if strings.Contains(text, "GET /v1/borrowed-time") {
		t.Fatal("docs/API.md contains the fabricated control route; coverage check is vacuous")
	}
	// The error-code catalogue the doc promises must cover what the
	// handlers can actually return.
	for _, code := range []string{"202", "400", "404", "409", "429", "500", "503"} {
		if !strings.Contains(text, code) {
			t.Errorf("docs/API.md never mentions status code %s", code)
		}
	}
}

// TestStatsFreshDaemon is the NaN regression test: a daemon that has
// settled zero jobs has no mean JCT and no attainment, which must reach
// the wire as JSON null — not "NaN", which json.Marshal would reject,
// and not 0, which would read as a perfect-but-idle stream.
func TestStatsFreshDaemon(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, 7, core.FIFOMode)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats on fresh daemon: %d", resp.StatusCode)
	}
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("fresh-daemon stats is not valid JSON: %v", err)
	}
	body := string(raw)
	if strings.Contains(body, "NaN") {
		t.Fatalf("fresh-daemon stats leaks NaN:\n%s", body)
	}
	if !strings.Contains(strings.ReplaceAll(body, " ", ""), `"attainment":null`) {
		t.Fatalf("fresh-daemon stats should carry \"attainment\":null, got:\n%s", body)
	}

	// The typed response must round-trip the nulls back to NaN.
	var stats StatsResponse
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.SLO.Attainment.IsNull() {
		t.Fatalf("attainment decoded as %v, want null/NaN", float64(stats.SLO.Attainment))
	}
	if !math.IsNaN(float64(stats.SLO.Attainment)) {
		t.Fatal("IsNull without NaN payload")
	}
}
