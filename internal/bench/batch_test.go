package bench

import (
	"fmt"
	"math"
	"testing"

	"astrx/internal/astrx"
	"astrx/internal/netlist"
)

// simpleOTACornerCards are the two process corners the 3-lane corner
// tests and BenchmarkTable2EvalCorners put on the Simple OTA.
const simpleOTACornerCards = `
.corner slow temp=85 nmos3.vto=0.95 vdd=2.4
.corner fast temp=-40 vdd=2.6
`

// cornerSet compiles src with every corner it declares (none → the
// one-lane, nominal-only set oblx runs for a plain deck).
func cornerSet(t *testing.T, src string) *astrx.CornerSet {
	t.Helper()
	deck, err := netlist.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := astrx.CompileCorners(deck, deck.CornerNames(), astrx.CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// sameBreakdown compares two cost breakdowns bit for bit (NaN included).
func sameBreakdown(a, b astrx.CostBreakdown) bool {
	bits := func(c astrx.CostBreakdown) [5]uint64 {
		return [5]uint64{math.Float64bits(c.Objective), math.Float64bits(c.Perf),
			math.Float64bits(c.Dev), math.Float64bits(c.DC), math.Float64bits(c.Total)}
	}
	return a.Failed == b.Failed && bits(a) == bits(b)
}

// TestBatchMatchesSequential pins the one-lane corner batch — the path
// every nominal oblx run evaluates through — to the scalar path bit for
// bit: for every Table 2 deck, a candidate sequence evaluated through
// NewCornerBatch + Run + WorstCase on a nominal-only corner set must
// produce the identical cost breakdowns, spec values and adaptive-weight
// trajectory as Compiled.CostDetail on a twin compilation. Exact
// equality (not 1e-12) is intentional: both sides run the same scalar
// pipeline and the same eq. (5) assembly, so any difference at all
// means the batch plumbing reordered arithmetic or leaked state.
func TestBatchMatchesSequential(t *testing.T) {
	for _, ckt := range Table2Suite {
		ckt := ckt
		t.Run(string(ckt), func(t *testing.T) {
			seqC, err := Compile(ckt)
			if err != nil {
				t.Fatal(err)
			}
			cs := cornerSet(t, DeckSource(ckt))
			if cs.K() != 1 {
				t.Fatalf("plain deck compiled to %d lanes, want 1", cs.K())
			}
			bw := cs.NewCornerBatch()
			include, evaluated := []bool{true}, []bool{false}
			for k, x := range evalSequence(seqC, 11) {
				want := seqC.CostDetail(x)
				wantSpecs := seqC.Workspace().State().SpecVals
				bw.Run([][]float64{cs.LaneX(0, x, nil)})
				evaluated[0] = bw.Lane(0).Err() == nil
				got := cs.WorstCase(bw, include, evaluated)
				if !sameBreakdown(got, want) {
					t.Errorf("candidate %d: batch %+v, scalar %+v", k, got, want)
				}
				if (seqC.Workspace().Err() == nil) != evaluated[0] {
					t.Fatalf("candidate %d: batch err %v, scalar err %v", k, bw.Lane(0).Err(), seqC.Workspace().Err())
				}
				if !evaluated[0] {
					continue
				}
				gotSpecs := bw.Lane(0).State().SpecVals
				for name, wv := range wantSpecs {
					if gv := gotSpecs[name]; math.Float64bits(gv) != math.Float64bits(wv) {
						t.Errorf("candidate %d spec %s: batch %.17g, scalar %.17g", k, name, gv, wv)
					}
				}
			}
			if got, want := fmt.Sprint(*cs.Nominal.Weights.State()), fmt.Sprint(*seqC.Weights.State()); got != want {
				t.Errorf("weight trajectory diverged:\nbatch  %s\nscalar %s", got, want)
			}
		})
	}
}

// TestBatchShortAndFailedLanes exercises the lane masks of a 3-lane
// corner batch: a skipped lane (nil candidate) and a poisoned one report
// errors without disturbing the nominal lane, whose assembly alone
// equals the scalar cost; a failed corner charges the failure penalty;
// and a failed nominal lane fails the candidate at FailCost.
func TestBatchShortAndFailedLanes(t *testing.T) {
	src := DeckSource(SimpleOTA) + simpleOTACornerCards
	cs := cornerSet(t, src)
	ref := cornerSet(t, src).Nominal
	if cs.K() != 3 {
		t.Fatalf("corner set has %d lanes, want 3", cs.K())
	}
	x := evalSequence(cs.Nominal, 0)[0]
	master := make([]float64, cs.NVars())
	copy(master, x)
	for i := 1; i < cs.K(); i++ {
		copy(master[cs.NUser+i*cs.NFree:], x[cs.NUser:])
	}
	bad := cs.LaneX(2, master, nil)
	bad[0] = 0 // zero width: device geometry fails the evaluation

	bw := cs.NewCornerBatch()
	bw.Run([][]float64{cs.LaneX(0, master, nil), nil, bad})
	if err := bw.Lane(0).Err(); err != nil {
		t.Fatalf("nominal lane failed: %v", err)
	}
	if bw.Lane(1).Err() == nil {
		t.Error("skipped lane reports no error")
	}
	if bw.Lane(2).Err() == nil {
		t.Error("poisoned lane reports no error")
	}

	onlyNom := cs.Breakdown(bw, []bool{true, false, false}, []bool{true, false, false})
	if err := ref.Workspace().Eval(x); err != nil {
		t.Fatal(err)
	}
	if want := ref.Workspace().Breakdown(); !sameBreakdown(onlyNom, want) {
		t.Errorf("nominal-only assembly %+v, scalar %+v", onlyNom, want)
	}
	failedFast := cs.Breakdown(bw, []bool{true, false, true}, []bool{true, false, false})
	if !(failedFast.Total > onlyNom.Total) {
		t.Errorf("failed-corner penalty missing: %g vs %g", failedFast.Total, onlyNom.Total)
	}

	// A short run (one candidate for three lanes) with a poisoned
	// nominal: the candidate fails.
	deadX := cs.LaneX(0, master, nil)
	deadX[0] = 0
	bw.Run([][]float64{deadX})
	if bw.Lane(0).Err() == nil {
		t.Fatal("poisoned nominal lane reports no error")
	}
	dead := cs.Breakdown(bw, []bool{true, false, false}, []bool{false, false, false})
	if !dead.Failed || dead.Total != cs.Nominal.Opt.FailCost {
		t.Errorf("failed nominal lane: %+v, want Failed at FailCost", dead)
	}
}

// TestWorkspaceZeroAlloc pins the scalar hot path: after warm-up one
// cost evaluation on the compiled-plan workspace — sparse factorization
// included — performs zero heap allocations. The eval benchmarks
// measure the same thing with -benchmem, but this exact count runs in
// the plain test suite and in make telemetry-guard without timing
// noise.
func TestWorkspaceZeroAlloc(t *testing.T) {
	for _, ckt := range Table2Suite {
		ckt := ckt
		t.Run(string(ckt), func(t *testing.T) {
			c, err := Compile(ckt)
			if err != nil {
				t.Fatal(err)
			}
			x := evalSequence(c, 0)[0]
			ws := c.NewWorkspace()
			ws.Cost(x) // warm up lazy scratch
			allocs := testing.AllocsPerRun(20, func() {
				ws.Cost(x)
			})
			if allocs != 0 {
				t.Errorf("scalar eval allocates %.1f/eval, want 0", allocs)
			}
			for j, s := range ws.JigStats() {
				if !s.Sparse {
					t.Errorf("jig %d took the dense path at the start point", j)
				}
			}
		})
	}
}

// TestBatchZeroAlloc pins the path oblx anneals on: after warm-up one
// worst-case evaluation — corner batch Run plus the WorstCase assembly —
// performs zero heap allocations, for the one-lane set of every Table 2
// deck (a nominal run) and the 3-lane Simple OTA corner set.
func TestBatchZeroAlloc(t *testing.T) {
	type deck struct{ name, src string }
	decks := []deck{{"Simple OTA corners", DeckSource(SimpleOTA) + simpleOTACornerCards}}
	for _, ckt := range Table2Suite {
		decks = append(decks, deck{string(ckt), DeckSource(ckt)})
	}
	for _, d := range decks {
		d := d
		t.Run(d.name, func(t *testing.T) {
			cs := cornerSet(t, d.src)
			x := make([]float64, cs.NVars())
			for i, v := range cs.Vars() {
				x[i] = v.Start()
			}
			k := cs.K()
			xs := make([][]float64, k)
			include, evaluated := make([]bool, k), make([]bool, k)
			for i := range xs {
				xs[i] = cs.LaneX(i, x, nil)
				include[i] = true
			}
			bw := cs.NewCornerBatch()
			eval := func() {
				bw.Run(xs)
				for i := range evaluated {
					evaluated[i] = bw.Lane(i).Err() == nil
				}
				cs.WorstCase(bw, include, evaluated)
			}
			eval() // warm up lazy scratch
			if allocs := testing.AllocsPerRun(20, eval); allocs != 0 {
				t.Errorf("%d-lane worst-case eval allocates %.1f/eval, want 0", k, allocs)
			}
		})
	}
}
