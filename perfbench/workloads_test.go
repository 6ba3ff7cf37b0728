package main

import (
	"context"
	"path/filepath"
	"testing"
)

// runShort runs one workload for a short time and checks it succeeded
// and reported exactly its mode's metric set.
func runShort(t *testing.T, workload string, trace bool) {
	t.Helper()
	cfg := config{workload: workload, seed: 3, seconds: 2, trace: trace,
		traceOut: filepath.Join(t.TempDir(), "spans.jsonl")}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Errorf("%s (trace %v): %d of %d operations failed", workload, trace, rep.failed, rep.attempted)
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	if len(rep.metrics) != len(want) {
		t.Errorf("%s (trace %v): %d metrics, want %d", workload, trace, len(rep.metrics), len(want))
	}
}

// TestOblxdMixedRuns drives the in-process daemon through a short timed
// run: every job must finish, and every repeat must return its key's
// cold result.
func TestOblxdMixedRuns(t *testing.T) { runShort(t, "oblxd-mixed", false) }

func TestWorkloadsRunTimedAndTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload, about 40s")
	}
	for _, w := range []string{"anneal-table2", "eval-replay", "oblxd-mixed"} {
		for _, trace := range []bool{false, true} {
			runShort(t, w, trace)
		}
	}
}
