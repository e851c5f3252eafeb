package service

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"cloudqc/internal/core"
	"cloudqc/internal/metrics"
	"cloudqc/internal/trace"
)

// singleShardPath holds reference rows recorded from the retired
// single-controller construction path, where the server adopted a bare
// LiveController and lifted it into a one-shard federation itself.
// Each row is "<stream>/<mode>/trace-<off|on> <digest>". No flag
// regenerates them: the path that produced them is gone, and a
// one-shard fed.New must keep reproducing them exactly.
const singleShardPath = "testdata/single_shard_runs.txt"

// singleShardModes are the admission modes the reference rows cover.
var singleShardModes = []core.Mode{core.FIFOMode, core.WFQMode, core.BatchMode, core.EDFMode}

// singleShardStreams are the submission streams the reference rows
// cover. The WAL stream's small circuits never contend for the cloud,
// so its trace-off rows coincide across modes; the contended stream
// queues jobs, so admission order — and with it every mode — shows.
var singleShardStreams = []struct {
	name  string
	drive func(*testing.T, *Server, *fakeClock)
}{
	{"wal", driveWALStream},
	{"contended", driveContendedStream},
}

// driveContendedStream submits nine ~65-qubit jobs from three tenants
// in quick succession — about three times the test cloud's computing
// capacity — so most of them queue and admission order decides the
// schedule.
func driveContendedStream(t *testing.T, srv *Server, clock *fakeClock) {
	t.Helper()
	circuits := []string{"ising_n66", "cat_n65", "qaoa_n64", "bv_n70"}
	for i := 0; i < 9; i++ {
		clock.advance(time.Duration(1+i%4) * time.Millisecond)
		req := SubmitRequest{Tenant: i % 3, Priority: 1 + i%3, Circuit: circuits[i%len(circuits)]}
		if i%3 == 1 {
			req.DeadlineSlack = 400
		}
		submitRaw(t, srv, req, http.StatusAccepted)
	}
	clock.advance(40 * time.Millisecond)
	rawGET(t, srv, "/v1/stats")
}

// newSingleShardServer serves a one-shard federation over the shared
// test configuration in mode, with a recorder sampling every 5 CX and,
// when traced, a span recorder.
func newSingleShardServer(t *testing.T, mode core.Mode, traced bool) (*Server, *fakeClock, *metrics.Recorder) {
	t.Helper()
	ccfg := testControllerConfig(7, mode)
	ccfg.Recorder = metrics.NewRecorder(5)
	if traced {
		ccfg.Trace = trace.New()
	}
	clock := newFakeClock()
	srv, err := New(Config{Federation: oneShard(t, ccfg), Now: clock.now, TimeScale: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return srv, clock, ccfg.Recorder
}

// singleShardDigest drives one stream through srv, drains it, and
// hashes the drain results, the /v1/stats body, the recorder
// series and, when traced, every job's /v1/jobs/{id}/trace body.
func singleShardDigest(t *testing.T, drive func(*testing.T, *Server, *fakeClock), srv *Server, clock *fakeClock, rec *metrics.Recorder, traced bool) string {
	t.Helper()
	drive(t, srv, clock)
	res, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n", resultsJSON(t, res), rawGET(t, srv, "/v1/stats"))
	samples, err := json.Marshal(rec.Samples())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%s\n", samples)
	if traced {
		for _, r := range res {
			_, body := getTrace(t, srv, r.Job.ID, http.StatusOK)
			fmt.Fprintf(h, "%s\n", body)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func singleShardName(stream string, mode core.Mode, traced bool) string {
	if traced {
		return stream + "/" + mode.String() + "/trace-on"
	}
	return stream + "/" + mode.String() + "/trace-off"
}

// TestSingleShardMatchesFrozenRuns: a one-shard federation served over
// HTTP reproduces every frozen row — results, stats body, recorder
// series and traces — of the retired bare-controller path.
func TestSingleShardMatchesFrozenRuns(t *testing.T) {
	data, err := os.ReadFile(singleShardPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			want[f[0]] = f[1]
		}
	}
	if n := 2 * len(singleShardStreams) * len(singleShardModes); len(want) != n {
		t.Fatalf("%s holds %d rows, want %d", singleShardPath, len(want), n)
	}
	for _, st := range singleShardStreams {
		for _, mode := range singleShardModes {
			for _, traced := range []bool{false, true} {
				name := singleShardName(st.name, mode, traced)
				t.Run(name, func(t *testing.T) {
					srv, clock, rec := newSingleShardServer(t, mode, traced)
					if got := singleShardDigest(t, st.drive, srv, clock, rec, traced); got != want[name] {
						t.Fatalf("digest %s, frozen row %q", got, want[name])
					}
				})
			}
		}
	}
}
