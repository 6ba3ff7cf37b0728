package oblx

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"astrx/internal/astrx"
	"astrx/internal/telemetry"
)

// TestProgressFlightFields verifies that the enriched progress events
// carry the flight-recorder payload (move class, Lam target, Hustin
// weights, worst spec) and that a shared StageTimer collects per-stage
// timings across the run.
func TestProgressFlightFields(t *testing.T) {
	deck := parse(t, diffAmpDeck)
	timer := telemetry.NewEvalTimer(8)
	var events []ProgressEvent
	res, err := Run(context.Background(), deck, Options{
		Seed: 3, MaxMoves: 4000, NoFreeze: true,
		Progress:      func(ev ProgressEvent) { events = append(events, ev) },
		ProgressEvery: 250,
		StageTimer:    timer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(events) == 0 {
		t.Fatalf("no progress events")
	}

	classNames := map[string]bool{"random": true, "all-cont": true, "newton-full": true, "newton-step": true}
	var sawClass, sawWorst bool
	for _, ev := range events {
		if ev.MoveClass != "" {
			sawClass = true
			if !classNames[ev.MoveClass] {
				t.Fatalf("move %d: unknown class %q", ev.Move, ev.MoveClass)
			}
		}
		if ev.Move > 0 {
			if ev.LamTarget <= 0 || ev.LamTarget > 1 {
				t.Errorf("move %d: LamTarget = %g out of (0, 1]", ev.Move, ev.LamTarget)
			}
			if len(ev.Hustin) != 4 {
				t.Errorf("move %d: Hustin has %d classes, want 4: %v", ev.Move, len(ev.Hustin), ev.Hustin)
			}
			for name, q := range ev.Hustin {
				if !classNames[name] || q <= 0 {
					t.Errorf("move %d: Hustin[%q] = %g", ev.Move, name, q)
				}
			}
		}
		if ev.WorstSpec != "" {
			sawWorst = true
			if ev.WorstSpec != "ugf" {
				t.Errorf("move %d: WorstSpec = %q, want ugf (the only non-objective spec)", ev.Move, ev.WorstSpec)
			}
			if math.IsNaN(ev.WorstSpecU) || math.IsInf(ev.WorstSpecU, 0) {
				t.Errorf("move %d: WorstSpecU non-finite", ev.Move)
			}
		}
		// Every event must survive the SSE path's JSON encoding.
		if _, err := json.Marshal(ev); err != nil {
			t.Fatalf("move %d: event not JSON-encodable: %v", ev.Move, err)
		}
	}
	if !sawClass {
		t.Error("no event carried a move class")
	}
	if !sawWorst {
		t.Error("no event carried a worst spec")
	}

	// The stage timer saw the full pipeline.
	bd := timer.Breakdown()
	stages := map[string]bool{}
	for _, row := range bd {
		stages[row.Stage] = true
		if row.SampledEvals <= 0 || row.TotalSeconds < 0 {
			t.Errorf("stage %s: bad breakdown row %+v", row.Stage, row)
		}
	}
	for _, want := range []string{"bias", "stamp", "factor", "solve", "moments", "fit", "specs"} {
		if !stages[want] {
			t.Errorf("stage %s missing from breakdown %+v", want, bd)
		}
	}
}

// TestProgressKCLAfterBiasFailure pins that a progress event reports the
// real KCL discrepancy when the evaluation fails after the bias stage:
// the jig's zero-valued resistor fails every full evaluation, but the
// bias solve — and so the Fig. 2 quantity — is unaffected.
func TestProgressKCLAfterBiasFailure(t *testing.T) {
	src := strings.Replace(dividerDeck, "r2 out 0 R2\ncl", "r2 out 0 '0*R2'\ncl", 1)
	deck := parse(t, src)
	c, err := astrx.Compile(deck, astrx.CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, len(c.Vars()))
	for i, v := range c.Vars() {
		x0[i] = v.Start()
	}
	ws := c.NewWorkspace()
	if err := ws.Eval(x0); err == nil {
		t.Fatal("full evaluation of the start point succeeded; the deck must fail after bias")
	}
	if err := ws.EvalBias(x0); err != nil {
		t.Fatalf("bias evaluation failed: %v", err)
	}
	want := ws.MaxKCLError()
	if want == 0 {
		t.Fatal("start point is already KCL-correct; the test needs a nonzero discrepancy")
	}

	var events []ProgressEvent
	res, err := Run(context.Background(), deck, Options{
		Seed: 1, MaxMoves: 600, NoFreeze: true, RecordTrace: true,
		Progress:      func(ev ProgressEvent) { events = append(events, ev) },
		ProgressEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || len(res.Trace) != len(events) {
		t.Fatalf("%d progress events, %d trace samples", len(events), len(res.Trace))
	}
	if ev := events[0]; ev.Move != 0 || ev.MaxKCLError != want {
		t.Errorf("move %d: MaxKCLError = %g, want %g (the bias-stage value)", ev.Move, ev.MaxKCLError, want)
	}
	for _, ev := range events {
		if ev.SpecVals != nil {
			t.Errorf("move %d: spec values %v from a failed evaluation", ev.Move, ev.SpecVals)
		}
	}
	if res.Trace[0].MaxKCLError != want {
		t.Errorf("Fig. 2 trace[0].MaxKCLError = %g, want %g", res.Trace[0].MaxKCLError, want)
	}
}
