package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"astrx/internal/oblx"
	"astrx/internal/telemetry"
)

func TestFlightRecorderWrapOrder(t *testing.T) {
	r := newFlightRecorder(4)
	for i := 1; i <= 3; i++ {
		r.record(oblx.ProgressEvent{Move: i})
	}
	if snap, _ := r.snapshot(); len(snap) != 3 || snap[0].Move != 1 || snap[2].Move != 3 {
		t.Fatalf("partly filled ring snapshot %+v, want moves 1..3", snap)
	}
	for i := 4; i <= 10; i++ {
		r.record(oblx.ProgressEvent{Move: i})
	}
	snap, total := r.snapshot()
	if len(snap) != 4 || total != 10 || len(r.evs) != 4 {
		t.Fatalf("len=%d total=%d buffered=%d, want 4/10/4", len(snap), total, len(r.evs))
	}
	for i, ev := range snap {
		if want := 7 + i; ev.Move != want {
			t.Fatalf("snapshot[%d].Move = %d, want %d (snap %+v)", i, ev.Move, want, snap)
		}
	}
}

func TestFlightRecorderDefaultCapacity(t *testing.T) {
	if got := newFlightRecorder(0).capacity; got != defaultFlightRecords {
		t.Fatalf("default capacity %d, want %d", got, defaultFlightRecords)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	r := newFlightRecorder(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				r.record(oblx.ProgressEvent{Move: i})
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				snap, _ := r.snapshot()
				for j := 1; j < len(snap); j++ {
					if snap[j].Move != snap[j-1].Move+1 {
						t.Errorf("snapshot out of order at %d: %d then %d", j, snap[j-1].Move, snap[j].Move)
						return
					}
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestFlightSnapshotRoundTrip(t *testing.T) {
	snap := &FlightSnapshot{
		Version:       FlightSnapshotVersion,
		JobID:         "job-1",
		Cause:         "stall",
		Time:          time.Unix(1700000000, 0).UTC(),
		Attempt:       2,
		SampleEvery:   64,
		TotalRecorded: 12,
		Stages:        []telemetry.StageBreakdown{{Stage: "factor", SampledEvals: 3, TotalSeconds: 0.5, MeanSeconds: 0.5 / 3}},
		Moves:         []oblx.ProgressEvent{{Move: 500, MoveClass: "var", Accepted: true, DCost: -0.25, AcceptRatio: 0.4}},
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFlightSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.JobID != snap.JobID || got.Cause != snap.Cause || len(got.Moves) != 1 ||
		got.Moves[0].Move != 500 || got.Moves[0].AcceptRatio != 0.4 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := DecodeFlightSnapshot([]byte(`{"version": 99}`)); err == nil {
		t.Fatalf("future snapshot version should be rejected")
	}
	if _, err := DecodeFlightSnapshot([]byte(`{garbage`)); err == nil {
		t.Fatalf("garbage snapshot should be rejected")
	}
}

// TestFlightSnapshotDecodesV1 decodes a literal version-1 snapshot, whose
// records name the acceptance ratio "acc_ratio": it must land in
// AcceptRatio alongside the fields both versions share.
func TestFlightSnapshotDecodesV1(t *testing.T) {
	const v1 = `{"version":1,"job_id":"job-7","cause":"stalled: no progress within 2s",` +
		`"time":"2026-01-02T03:04:05Z","attempt":1,"sample_every":64,"total_recorded":3,` +
		`"moves":[` +
		`{"move":0,"accepted":false,"dcost":0,"temp":12.5,"lam_target":1,"acc_ratio":0.5,"cost":40,"best_cost":40},` +
		`{"run":1,"move":500,"move_class":"newton-step","accepted":true,"dcost":-0.75,"temp":9.25,` +
		`"lam_target":0.44,"acc_ratio":0.375,"cost":12,"best_cost":11.5,"hustin":{"random":1.5},` +
		`"max_kcl_error":0.02,"worst_spec":"ugf","worst_spec_u":0.3,"evals":812,"span_id":"a1b2"}]}`
	snap, err := DecodeFlightSnapshot([]byte(v1))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 || snap.JobID != "job-7" || snap.TotalRecorded != 3 || len(snap.Moves) != 2 {
		t.Fatalf("header: %+v", snap)
	}
	if got := snap.Moves[0].AcceptRatio; got != 0.5 {
		t.Errorf("moves[0].AcceptRatio = %g, want 0.5", got)
	}
	ev := snap.Moves[1]
	if ev.AcceptRatio != 0.375 || ev.Run != 1 || ev.Move != 500 || ev.MoveClass != "newton-step" ||
		!ev.Accepted || ev.DCost != -0.75 || ev.Temp != 9.25 || ev.LamTarget != 0.44 ||
		ev.Cost != 12 || ev.BestCost != 11.5 || ev.Hustin["random"] != 1.5 ||
		ev.MaxKCLError != 0.02 || ev.WorstSpec != "ugf" || ev.WorstSpecU != 0.3 ||
		ev.Evals != 812 || ev.SpanID != "a1b2" {
		t.Errorf("v1 record decoded as %+v", ev)
	}
}

func TestWriteJSONL(t *testing.T) {
	evs := []oblx.ProgressEvent{
		{Move: 1, MoveClass: "var", Accepted: true, DCost: -1, Hustin: map[string]float64{"var": 0.5}},
		{Move: 2, MoveClass: "swap", Accepted: false, DCost: 2.5, WorstSpec: "gain", WorstSpecU: 1.5},
	}
	var buf bytes.Buffer
	if err := writeJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var ev oblx.ProgressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not valid JSON: %v", lines+1, err)
		}
		lines++
		if ev.Move != lines {
			t.Errorf("line %d decoded Move %d", lines, ev.Move)
		}
	}
	if lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
}
