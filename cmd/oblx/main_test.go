package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"astrx/internal/bench"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
)

func statExists(string) (os.FileInfo, error)  { return nil, nil }
func statMissing(string) (os.FileInfo, error) { return nil, fs.ErrNotExist }

func TestFlagProblems(t *testing.T) {
	cases := []struct {
		name            string
		moves, runs, ce int
		ss              int
		ckpt            string
		resume          bool
		stat            func(string) (os.FileInfo, error)
		wantSubs        []string
	}{
		{
			name:  "all defaults fine",
			moves: 120_000, runs: 1, ce: 5000,
			stat: statExists,
		},
		{
			name:  "zero runs",
			moves: 1000, runs: 0, ce: 5000,
			stat:     statExists,
			wantSubs: []string{"-runs must be >= 1"},
		},
		{
			name:  "negative moves",
			moves: -5, runs: 1, ce: 5000,
			stat:     statExists,
			wantSubs: []string{"-moves must be >= 1"},
		},
		{
			name:  "negative checkpoint interval",
			moves: 1000, runs: 1, ce: -1,
			stat:     statExists,
			wantSubs: []string{"-checkpoint-every must be >= 0"},
		},
		{
			name:  "resume without checkpoint",
			moves: 1000, runs: 1, ce: 5000,
			resume:   true,
			stat:     statExists,
			wantSubs: []string{"-resume requires -checkpoint"},
		},
		{
			name:  "resume with missing file",
			moves: 1000, runs: 1, ce: 5000,
			ckpt: "run.ckpt", resume: true,
			stat:     statMissing,
			wantSubs: []string{`"run.ckpt" does not exist`},
		},
		{
			name:  "resume with multiple runs",
			moves: 1000, runs: 4, ce: 5000,
			ckpt: "run.ckpt", resume: true,
			stat:     statExists,
			wantSubs: []string{"single-run feature"},
		},
		{
			name:  "negative stage sample",
			moves: 1000, runs: 1, ce: 5000, ss: -3,
			stat:     statExists,
			wantSubs: []string{"-stage-sample must be >= 0"},
		},
		{
			name:  "several problems reported together",
			moves: 0, runs: -2, ce: -7,
			stat: statExists,
			wantSubs: []string{
				"-moves must be >= 1",
				"-runs must be >= 1",
				"-checkpoint-every must be >= 0",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probs := flagProblems(tc.moves, tc.runs, tc.ce, tc.ss, tc.ckpt, tc.resume, tc.stat)
			if len(tc.wantSubs) == 0 {
				if len(probs) != 0 {
					t.Fatalf("unexpected problems: %v", probs)
				}
				return
			}
			joined := strings.Join(probs, "\n")
			for _, want := range tc.wantSubs {
				if !strings.Contains(joined, want) {
					t.Errorf("problems %q missing %q", joined, want)
				}
			}
			if len(probs) != len(tc.wantSubs) {
				t.Errorf("got %d problems %q, want %d", len(probs), joined, len(tc.wantSubs))
			}
		})
	}
}

// TestTraceWriterConcurrentRuns streams the progress events of parallel
// RunBest runs through one trace writer: every line must decode as a
// whole ProgressEvent, and every run must appear.
func TestTraceWriterConcurrentRuns(t *testing.T) {
	deck, err := netlist.Parse(bench.DeckSource(bench.SimpleOTA))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tw, err := newTraceWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3
	_, _, errs := oblx.RunBest(context.Background(), deck, runs, oblx.Options{
		Seed: 1, MaxMoves: 400, NoFreeze: true,
		ProgressEvery: 20, Progress: tw.write,
	})
	for i, e := range errs {
		if e != nil {
			t.Fatalf("run %d: %v", i, e)
		}
	}
	if err := tw.close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	perRun := map[int]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var ev oblx.ProgressEvent
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("line %d is not a ProgressEvent: %v\n%s", lines, err, sc.Text())
		}
		if ev.MaxMoves != 400 {
			t.Fatalf("line %d: max_moves %d, want 400", lines, ev.MaxMoves)
		}
		perRun[ev.Run]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != tw.n {
		t.Fatalf("file has %d lines, writer counted %d", lines, tw.n)
	}
	for r := 0; r < runs; r++ {
		if want := 400 / 20; perRun[r] != want {
			t.Errorf("run %d: %d events, want %d", r, perRun[r], want)
		}
	}
}
