package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudqc/internal/core"
)

// sseRead parses one SSE stream until want events have been collected
// (heartbeat comments are skipped), then returns them. The reader must
// already be positioned at the stream start.
func sseRead(t *testing.T, sc *bufio.Scanner, want int) []Event {
	t.Helper()
	var (
		evs []Event
		cur string
	)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			cur = strings.TrimPrefix(line, "data: ")
		case line == "" && cur != "":
			var ev Event
			if err := json.Unmarshal([]byte(cur), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", cur, err)
			}
			evs = append(evs, ev)
			cur = ""
			if len(evs) == want {
				return evs
			}
		}
	}
	t.Fatalf("stream ended after %d events, want %d (scan err %v)", len(evs), want, sc.Err())
	return nil
}

// TestSSEJobStream: a settled job's per-job stream replays its whole
// lifecycle in order — submit, queued, placed, done — with increasing
// sequence numbers, then ends (the handler returns after the done
// event, so a plain GET completes).
func TestSSEJobStream(t *testing.T) {
	srv, ts, clock := newTestServer(t, Config{}, 7, core.FIFOMode)
	var jr JobResponse
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", SubmitRequest{Tenant: 3, QASM: ghz3QASM}, &jr); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	clock.advance(2 * time.Second)
	rawGET(t, srv, "/v1/stats") // paces the clock; the job settles

	resp, err := http.Get(ts.URL + "/v1/jobs/" + itoa(jr.ID) + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var types []string
	var evs []Event
	for _, ev := range sseRead(t, sc, 4) {
		types = append(types, ev.Type)
		evs = append(evs, ev)
	}
	if got := strings.Join(types, ","); got != "submit,queued,placed,done" {
		t.Fatalf("lifecycle %q", got)
	}
	for i, ev := range evs {
		if ev.Job != jr.ID || ev.Tenant != 3 {
			t.Fatalf("event %d targets job %d tenant %d, want job %d tenant 3", i, ev.Job, ev.Tenant, jr.ID)
		}
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Fatalf("sequence not increasing: %d then %d", evs[i-1].Seq, ev.Seq)
		}
	}
	if last := evs[len(evs)-1]; last.Status != "completed" {
		t.Fatalf("done status %q", last.Status)
	}
	// The handler must have returned — the body is fully consumed.
	if sc.Scan() {
		t.Fatalf("per-job stream kept going after done: %q", sc.Text())
	}

	if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/99999/events", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown job events: %d, want 404", code)
	}
}

// TestSSEGlobalResume: the firehose replays the retained backlog, and a
// reconnect with Last-Event-ID (or ?since=) resumes exactly after the
// last delivered event — no duplicates, no gaps.
func TestSSEGlobalResume(t *testing.T) {
	srv, ts, clock := newTestServer(t, Config{}, 7, core.FIFOMode)
	for tenant := 0; tenant < 2; tenant++ {
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", SubmitRequest{Tenant: tenant, QASM: ghz3QASM}, nil); code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", tenant, code)
		}
		clock.advance(time.Second)
	}
	clock.advance(2 * time.Second)
	rawGET(t, srv, "/v1/stats")

	// Two settled jobs = 8 lifecycle events. Read the first 5, note the
	// cursor, drop the connection.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	first := sseRead(t, bufio.NewScanner(resp.Body), 5)
	cancel()
	resp.Body.Close()

	// Resume via Last-Event-ID: exactly the remaining 3 events arrive.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	req2, err := http.NewRequestWithContext(ctx2, "GET", ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Last-Event-ID", itoa(first[len(first)-1].Seq))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	rest := sseRead(t, bufio.NewScanner(resp2.Body), 3)
	if rest[0].Seq != first[len(first)-1].Seq+1 {
		t.Fatalf("resume gap: cursor %d then %d", first[len(first)-1].Seq, rest[0].Seq)
	}
	cancel2()

	// ?since= drives the same cursor for clients that can't set headers.
	ctx3, cancel3 := context.WithCancel(context.Background())
	defer cancel3()
	req3, err := http.NewRequestWithContext(ctx3, "GET", ts.URL+"/v1/events?since="+itoa(first[2].Seq), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	tail := sseRead(t, bufio.NewScanner(resp3.Body), 5)
	if tail[0].Seq != first[2].Seq+1 {
		t.Fatalf("?since resume gap: cursor %d then %d", first[2].Seq, tail[0].Seq)
	}
}

// TestSSEHeartbeat: an idle stream emits comment heartbeats so proxies
// keep the connection open, and the heartbeat path keeps advancing
// virtual time (the stream is a pacer even with no other traffic).
func TestSSEHeartbeat(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{}, 7, core.FIFOMode)
	srv.heartbeat = 5 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	deadline := time.After(5 * time.Second)
	got := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), ": heartbeat") {
				got <- sc.Text()
				return
			}
		}
	}()
	select {
	case <-got:
	case <-deadline:
		t.Fatal("no heartbeat within 5s")
	}
}

// TestSSEPreemptResume: the cross-shard rescue surfaces as preempted /
// resumed events on the victim's stream, with the resumed event stamped
// with the shard the checkpoint landed on.
func TestSSEPreemptResume(t *testing.T) {
	srv, clock, f := newCrossShardWALServer(t, "")
	victim := submitRaw(t, srv, SubmitRequest{Tenant: 0, Circuit: "qugan_n39"}, http.StatusAccepted)
	clock.advance(10 * time.Millisecond)
	submitRaw(t, srv, SubmitRequest{Tenant: 1, Circuit: "ghz_n127", DeadlineSlack: 1e6}, http.StatusAccepted)
	moved := false
	for i := 0; i < 400 && !moved; i++ {
		clock.advance(50 * time.Millisecond)
		rawGET(t, srv, "/v1/stats")
		if s, ok := f.ShardOf(victim.ID); ok && s == 1 {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("victim never rehomed (preempt %+v)", f.PreemptStats())
	}
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	// The per-job stream replays the whole retained lifecycle and ends
	// at done, so the recorder captures the complete body.
	body := rawGET(t, srv, "/v1/jobs/"+itoa(victim.ID)+"/events")
	sc := bufio.NewScanner(strings.NewReader(body))
	var evs []Event
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			var ev Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "data: ")), &ev); err != nil {
				t.Fatal(err)
			}
			evs = append(evs, ev)
		}
	}
	var preempted, resumed bool
	for _, ev := range evs {
		switch ev.Type {
		case EventPreempted:
			preempted = true
		case EventResumed:
			resumed = true
			if ev.Shard != 1 {
				t.Fatalf("resumed on shard %d, want 1", ev.Shard)
			}
		}
	}
	if !preempted || !resumed {
		t.Fatalf("lifecycle missing preempted/resumed: %+v", evs)
	}
	if last := evs[len(evs)-1]; last.Type != EventDone || last.Status != "completed" {
		t.Fatalf("final event %+v", last)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }
