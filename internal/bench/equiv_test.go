package bench

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"astrx/internal/astrx"
)

// goldenTol is the relative tolerance of the golden eval vectors.
const goldenTol = 1e-12

// relEq reports |a-b| <= tol·max(1, |a|, |b|), treating equal NaNs as
// equal.
func relEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	scale := 1.0
	if v := math.Abs(a); v > scale {
		scale = v
	}
	if v := math.Abs(b); v > scale {
		scale = v
	}
	return math.Abs(a-b) <= tol*scale
}

// evalSequence builds a deterministic walk through the design space:
// the deck's start point plus pseudo-random points spread across each
// variable's range. Some land in infeasible corners on purpose.
func evalSequence(c *astrx.Compiled, n int) [][]float64 {
	vars := c.Vars()
	rng := rand.New(rand.NewSource(12345))
	seq := make([][]float64, 0, n+1)
	x0 := make([]float64, len(vars))
	for i := range vars {
		x0[i] = vars[i].Start()
	}
	seq = append(seq, x0)
	for k := 0; k < n; k++ {
		x := make([]float64, len(vars))
		for i := range vars {
			v := &vars[i]
			x[i] = v.Min + rng.Float64()*(v.Max-v.Min)
		}
		seq = append(seq, x)
	}
	return seq
}

// goldenPoint is one evaluation: its design vector, the cost breakdown,
// and — when the evaluation completed — every spec value and the max
// relative KCL residual.
type goldenPoint struct {
	X         []float64          `json:"x"`
	Failed    bool               `json:"failed"`
	Total     float64            `json:"total"`
	Objective float64            `json:"objective"`
	Perf      float64            `json:"perf"`
	Dev       float64            `json:"dev"`
	DC        float64            `json:"dc"`
	Specs     map[string]float64 `json:"specs"`
	MaxKCL    *float64           `json:"max_kcl_err"`
}

type goldenDeck struct {
	Deck   string        `json:"deck"`
	Points []goldenPoint `json:"points"`
}

// TestEvalGoldenVectors pins the evaluator's outputs on every Table 2
// deck to committed golden vectors at 1e-12 relative.
//
// testdata/eval_golden.json was produced at commit fad7081, the last
// commit that carried the map-based reference evaluator, whose
// equivalence test held the workspace path to 1e-12 against it. For
// each deck it holds the evalSequence(c, 12) points plus one poisoned
// copy of the second point with its first variable zeroed (a zero
// device width, so the failure path is pinned too). Each point was
// evaluated in order through Compiled.Workspace().CostDetail; the file
// records the failed flag, the total and every breakdown term, and, for
// points whose evaluation completed (Err() == nil), every spec value
// from State().SpecVals and State's max relative KCL residual
// |KCL|/(KCLFlow+1e-12) over the free nodes.
func TestEvalGoldenVectors(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "eval_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decks []goldenDeck
	if err := json.Unmarshal(raw, &decks); err != nil {
		t.Fatal(err)
	}
	if len(decks) != len(Table2Suite) {
		t.Fatalf("golden file covers %d decks, Table 2 has %d", len(decks), len(Table2Suite))
	}
	for i, ckt := range Table2Suite {
		gd := decks[i]
		if gd.Deck != string(ckt) {
			t.Fatalf("golden deck %d is %q, want %q", i, gd.Deck, ckt)
		}
		t.Run(string(ckt), func(t *testing.T) {
			c, err := Compile(ckt)
			if err != nil {
				t.Fatal(err)
			}
			seq := evalSequence(c, 12)
			if len(gd.Points) != len(seq)+1 {
				t.Fatalf("golden file has %d points, want %d", len(gd.Points), len(seq)+1)
			}
			ws := c.Workspace()
			for k, gp := range gd.Points {
				if k < len(seq) && !slices.Equal(gp.X, seq[k]) {
					t.Fatalf("point %d is not evalSequence point %d", k, k)
				}
				bd := ws.CostDetail(gp.X)
				if bd.Failed != gp.Failed {
					t.Fatalf("point %d: failed = %v, golden %v (err %v)", k, bd.Failed, gp.Failed, ws.Err())
				}
				for _, term := range []struct {
					name      string
					got, want float64
				}{
					{"total", bd.Total, gp.Total},
					{"objective", bd.Objective, gp.Objective},
					{"perf", bd.Perf, gp.Perf},
					{"dev", bd.Dev, gp.Dev},
					{"dc", bd.DC, gp.DC},
				} {
					if !relEq(term.got, term.want, goldenTol) {
						t.Errorf("point %d: cost %s = %.17g, golden %.17g", k, term.name, term.got, term.want)
					}
				}
				if (ws.Err() == nil) != (gp.MaxKCL != nil) {
					t.Fatalf("point %d: err = %v, but golden completed = %v", k, ws.Err(), gp.MaxKCL != nil)
				}
				if gp.MaxKCL == nil {
					continue
				}
				if got := ws.MaxKCLError(); !relEq(got, *gp.MaxKCL, goldenTol) {
					t.Errorf("point %d: max KCL error = %.17g, golden %.17g", k, got, *gp.MaxKCL)
				}
				specs := ws.State().SpecVals
				if len(specs) != len(gp.Specs) {
					t.Fatalf("point %d: %d specs, golden %d", k, len(specs), len(gp.Specs))
				}
				names := make([]string, 0, len(gp.Specs))
				for name := range gp.Specs {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					got, ok := specs[name]
					if want := gp.Specs[name]; !ok || !relEq(got, want, goldenTol) {
						t.Errorf("point %d: spec %s = %.17g, golden %.17g", k, name, got, want)
					}
				}
			}
		})
	}
}

// TestWorkspaceReuseIsDeterministic pins the zero-state-leak property
// the annealer's checkpoint/resume depends on: evaluating a sequence
// through one long-lived workspace must give bit-identical costs to
// evaluating the same sequence with a fresh workspace per point.
// (Adaptive weights live on the Compiled, not the workspace, so both
// sides see the same weight trajectory as long as the costs agree.)
func TestWorkspaceReuseIsDeterministic(t *testing.T) {
	for _, ckt := range []Circuit{SimpleOTA, BiCMOSTwoStage} {
		ckt := ckt
		t.Run(string(ckt), func(t *testing.T) {
			shared, err := Compile(ckt)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Compile(ckt)
			if err != nil {
				t.Fatal(err)
			}
			for k, x := range evalSequence(shared, 20) {
				got := shared.Cost(x)                // one reused workspace
				want := fresh.NewWorkspace().Cost(x) // a new workspace every time
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("eval %d: reused workspace cost %.17g, fresh workspace cost %.17g", k, got, want)
				}
			}
		})
	}
}
