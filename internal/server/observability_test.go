package server

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"astrx/internal/netlist"
	"astrx/internal/oblx"
	"astrx/internal/retry"
)

// getJSON fetches a URL and decodes the JSON body into v, returning the
// status code.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestFlightSnapshotSurvivesRestart is the acceptance drill: a job that
// stalls on every attempt is killed, requeued, and finally poisoned —
// each kill dumping the flight recorder to the state dir — and after a
// daemon restart the last moves are still retrievable over the API from
// the durable snapshot.
func TestFlightSnapshotSurvivesRestart(t *testing.T) {
	orig := synthesize
	defer func() { synthesize = orig }()
	synthesize = func(ctx context.Context, deck *netlist.Deck, opt oblx.Options) (*oblx.Result, error) {
		if opt.Progress != nil {
			opt.Progress(oblx.ProgressEvent{
				Move: 17, MaxMoves: opt.MaxMoves, MoveClass: "random",
				Accepted: true, DCost: -0.5, Temp: 3.25, LamTarget: 0.44,
				AcceptRatio: 0.5, Cost: 12.5, BestCost: 12.5, Evals: 100,
			})
		}
		<-ctx.Done() // stall until the watchdog kills us
		return nil, ctx.Err()
	}

	dir := t.TempDir()
	m1, err := New(Options{
		StateDir:     dir,
		Workers:      1,
		StallTimeout: 60 * time.Millisecond,
		Retry:        retry.Policy{Base: 10 * time.Millisecond, Max: 20 * time.Millisecond, Multiplier: 2, MaxAttempts: 2},
		Logger:       testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(m1.Handler())

	j, err := m1.SubmitWithRequestID(testDeck, JobOptions{Seed: 1, MaxMoves: 1000}, "req-flight-1")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StatePoisoned, 30*time.Second)

	// While the poisoning incarnation is still up, telemetry is live.
	var live TelemetrySummary
	if code := getJSON(t, ts1.URL+"/v1/jobs/"+j.ID+"/telemetry", &live); code != http.StatusOK {
		t.Fatalf("live telemetry: status %d", code)
	}
	if live.Source != "live" || live.Records < 1 || live.TotalRecorded < 1 {
		t.Fatalf("live telemetry: %+v", live)
	}

	// The poison kill left a durable flight snapshot in the state dir.
	if _, err := os.Stat(filepath.Join(dir, "job-"+j.ID+".flight")); err != nil {
		t.Fatalf("no flight snapshot on disk: %v", err)
	}

	ts1.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}

	// ---- restart over the same state dir ----
	m2 := newTestManager(t, Options{StateDir: dir, Workers: 1})
	ts2 := httptest.NewServer(m2.Handler())
	defer ts2.Close()

	j2 := m2.Get(j.ID)
	if j2 == nil || j2.State() != StatePoisoned {
		t.Fatalf("poisoned job not recovered: %v", j2)
	}

	var sum TelemetrySummary
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+j.ID+"/telemetry", &sum); code != http.StatusOK {
		t.Fatalf("snapshot telemetry: status %d", code)
	}
	if sum.Source != "snapshot" || !strings.Contains(sum.Cause, "stalled") ||
		sum.Records < 1 || sum.LastMove == nil {
		t.Fatalf("snapshot telemetry: %+v", sum)
	}
	if sum.LastMove.Move != 17 || sum.LastMove.MoveClass != "random" || !sum.LastMove.Accepted ||
		sum.LastMove.AcceptRatio != 0.5 {
		t.Fatalf("last move corrupted across restart: %+v", sum.LastMove)
	}

	// The JSONL dump round-trips every buffered record.
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + j.ID + "/telemetry/moves")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("moves: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("moves Content-Type = %q", ct)
	}
	var got int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var ev oblx.ProgressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("moves line %d: %v", got+1, err)
		}
		if ev.Move != 17 || ev.AcceptRatio != 0.5 || ev.MaxMoves != 1000 {
			t.Errorf("moves line %d: move %d accept_ratio %g max_moves %d, want 17/0.5/1000",
				got+1, ev.Move, ev.AcceptRatio, ev.MaxMoves)
		}
		got++
	}
	if got != sum.Records {
		t.Errorf("moves returned %d records, summary says %d", got, sum.Records)
	}

	// The request ID survived the restart inside the job record.
	if rec := readRecord(t, dir, j.ID); rec.RequestID != "req-flight-1" {
		t.Errorf("persisted request ID = %q, want req-flight-1", rec.RequestID)
	}
}

// TestTelemetryLegacyJob409: a job recovered from a record that predates
// telemetry — no live recorder, no flight snapshot on disk — answers 409
// Conflict, not 500, on both telemetry endpoints.
func TestTelemetryLegacyJob409(t *testing.T) {
	orig := synthesize
	defer func() { synthesize = orig }()
	synthesize = func(ctx context.Context, deck *netlist.Deck, opt oblx.Options) (*oblx.Result, error) {
		return nil, context.Canceled // fail instantly; no stall, no snapshot
	}

	dir := t.TempDir()
	m1, err := New(Options{StateDir: dir, Workers: 1, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m1.Submit(testDeck, JobOptions{Seed: 1, MaxMoves: 1000})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed, 30*time.Second)
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Options{StateDir: dir, Workers: 1})
	ts := httptest.NewServer(m2.Handler())
	defer ts.Close()

	for _, path := range []string{"/telemetry", "/telemetry/moves"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("GET %s: status %d, want 409", path, resp.StatusCode)
		}
		if !strings.Contains(e.Error, "no telemetry") {
			t.Errorf("GET %s: error %q", path, e.Error)
		}
	}

	// Unknown jobs still 404.
	resp, err := http.Get(ts.URL + "/v1/jobs/nosuchjob/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job telemetry: status %d, want 404", resp.StatusCode)
	}
}

// TestSubscribeConcurrentPublish races the SSE replay buffer: publishers
// appending progress and state events while subscribers attach, drain,
// and detach. Run under -race; the invariants checked are that replay
// snapshots never exceed the buffer cap and stay in event order.
func TestSubscribeConcurrentPublish(t *testing.T) {
	j := &Job{ID: "race", state: StateQueued, bestCost: math.NaN()}

	var pubs, subs sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 4; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for i := 0; i < 2000; i++ {
				ev := Event{Type: "progress", Prog: &oblx.ProgressEvent{Move: i, Run: p}}
				j.mu.Lock()
				j.publishLocked(ev)
				j.mu.Unlock()
			}
		}(p)
	}
	for s := 0; s < 8; s++ {
		subs.Add(1)
		go func() {
			defer subs.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				replay, ch, cancel := j.Subscribe()
				if len(replay) > maxBufferedEvents {
					t.Errorf("replay has %d events, cap is %d", len(replay), maxBufferedEvents)
				}
				// Drain a few live events, then detach mid-stream.
				for i := 0; i < 10; i++ {
					select {
					case <-ch:
					case <-time.After(time.Millisecond):
					}
				}
				cancel()
			}
		}()
	}
	pubs.Wait()
	// Terminal state event lands after the progress storm.
	j.mu.Lock()
	j.publishLocked(Event{Type: "state", State: StateDone})
	j.mu.Unlock()
	close(stop)
	subs.Wait()

	replay, _, cancel := j.Subscribe()
	cancel()
	if len(replay) == 0 || len(replay) > maxBufferedEvents {
		t.Fatalf("final replay has %d events", len(replay))
	}
	if last := replay[len(replay)-1]; last.Type != "state" || last.State != StateDone {
		t.Errorf("state transitions must never be evicted; last event %+v", last)
	}
}

// TestTraceparentRequestID: with no X-Request-Id, the request ID falls
// back to the W3C traceparent trace ID, so daemon log lines correlate
// with an upstream tracing system.
func TestTraceparentRequestID(t *testing.T) {
	cases := []struct {
		tp, want string
	}{
		{"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", "0af7651916cd43dd8448eb211c80319c"},
		{"00-00000000000000000000000000000000-b7ad6b7169203331-01", ""}, // all-zero trace ID is invalid
		{"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", ""}, // uppercase is not valid traceparent
		{"garbage", ""},
		{"", ""},
		// Cases the pre-trace-package extractor wrongly accepted:
		{"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", ""},       // version ff is forbidden
		{"zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", ""},       // non-hex version
		{"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", ""}, // version 00 has exactly 4 fields
		{"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", ""},       // all-zero parent span ID
		{"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz", ""},       // non-hex flags
		// A future version may append fields; the embedded IDs still parse.
		{"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", "0af7651916cd43dd8448eb211c80319c"},
	}
	for _, c := range cases {
		if got := traceparentID(c.tp); got != c.want {
			t.Errorf("traceparentID(%q) = %q, want %q", c.tp, got, c.want)
		}
	}

	m := newTestManager(t, Options{})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("traceparent", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("X-Request-Id = %q, want the traceparent trace ID", got)
	}

	// An explicit X-Request-Id wins over traceparent.
	req2, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req2.Header.Set("traceparent", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	req2.Header.Set("X-Request-Id", "explicit-7")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got != "explicit-7" {
		t.Errorf("X-Request-Id = %q, want explicit-7", got)
	}
}
