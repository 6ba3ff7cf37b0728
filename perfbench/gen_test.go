package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueUnderStall sends ops every 20ms to a handler
// that stalls the second request for 200ms. The ops due during the stall
// must go out late — right after it — and their latency, timed from the
// due time, must include the wait the stall imposed.
func TestOpenLoopTimesFromDueUnderStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/op/1" {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	client := ts.Client()

	const n = 8
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(i) * 20 * time.Millisecond
	}
	done := make([]time.Time, n)
	idles := 0
	start := time.Now().Add(10 * time.Millisecond)
	sent := openLoop(start, dues, func(i int) {
		calls++
		resp, err := client.Get(ts.URL + "/op/" + string(rune('0'+i)))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		done[i] = time.Now()
	}, func(until time.Time) {
		idles++
		sleepUntil(until)
	})
	if calls != n {
		t.Fatalf("fired %d ops, want %d", calls, n)
	}
	for i := range dues {
		due := start.Add(dues[i])
		lag := sent[i].Sub(due)
		lat := done[i].Sub(due)
		if lag < 0 {
			t.Errorf("op %d sent %v before it was due", i, -lag)
		}
		// Ops 2.. were due at 40ms.. but op 1 (due 20ms) holds the loop
		// until ~220ms, so ops due before then are late by the rest of
		// the stall, and their latency from the due time includes it.
		if stalledUntil := dues[1] + stall; dues[i] > dues[1] && dues[i] < stalledUntil {
			if want := stalledUntil - dues[i] - 10*time.Millisecond; lag < want {
				t.Errorf("op %d lag %v, want at least %v", i, lag, want)
			}
			if lat < lag {
				t.Errorf("op %d latency %v shorter than its lag %v", i, lat, lag)
			}
		}
	}
	if lag := sent[0].Sub(start); lag > 15*time.Millisecond {
		t.Errorf("first op %v late with nothing in the way", lag)
	}
	if idles == 0 {
		t.Error("generator never idled before a due time")
	}
}
