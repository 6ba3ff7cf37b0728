package oblx

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"astrx/internal/anneal"
	"astrx/internal/astrx"
	"astrx/internal/dcsolve"
	"astrx/internal/faults"
	"astrx/internal/trace"
)

// cornerQuarantineAfter is the per-corner quarantine threshold: a corner
// whose evaluation fails (after its in-move retry) this many times in a
// row is excluded from the worst-case assembly for the rest of the run.
// The run then completes on the remaining corners with Result.Degraded
// set, instead of paying full evaluation cost forever for a lane that
// drags every candidate to the failure penalty.
const cornerQuarantineAfter = 10

// cornerLane is the failure bookkeeping of one corner (lane 0, the
// nominal, is tracked by the candidate-level machinery instead).
type cornerLane struct {
	fails       int // evaluations that still failed after the retry
	retries     int // in-move scalar re-attempts
	consec      int // consecutive failed evaluations (resets on success)
	quarantined bool
}

// cornerEval evaluates one candidate against every lane of the corner
// set (the nominal first; a nominal-only run has just that lane) and
// assembles the worst-case-over-lanes cost. It owns the run's batch,
// the reporting batch, the per-corner failure accounting, and the
// retry-then-quarantine policy; the surrounding problem wrapper keeps
// its candidate-level panic/NaN hardening on top.
type cornerEval struct {
	cs *astrx.CornerSet
	// bw is the run's batch: each lane's shared workspace, which the
	// Newton moves' DCProblem and the stage clocks also use. rbw is the
	// reporting batch (progress events and the final evaluation), so
	// reporting never disturbs the run's workspaces or counters.
	bw, rbw *astrx.BatchWorkspace
	inj     *faults.Injector

	lanes     []cornerLane // indexed like cs lanes; [0] unused
	bufs      [][]float64  // per-lane candidate scratch
	xs        [][]float64  // batch argument: bufs[i] or nil (skipped)
	include   []bool
	evaluated []bool

	// span is the run's anneal span; lane-state transitions (first
	// retry, quarantine) are recorded on it as events. Nil-safe, so the
	// untraced hot path pays nothing — events fire only on the rare
	// transitions, never per eval.
	span *trace.Active
}

func newCornerEval(cs *astrx.CornerSet, inj *faults.Injector) *cornerEval {
	k := cs.K()
	return &cornerEval{
		cs:        cs,
		bw:        cs.Batch(),
		rbw:       cs.NewCornerBatch(),
		inj:       inj,
		lanes:     make([]cornerLane, k),
		bufs:      make([][]float64, k),
		xs:        make([][]float64, k),
		include:   make([]bool, k),
		evaluated: make([]bool, k),
	}
}

// load projects the master vector x onto the batch arguments: one lane
// vector per live lane, nil for quarantined corners.
func (ce *cornerEval) load(x []float64) {
	for i := range ce.xs {
		ce.include[i] = i == 0 || !ce.lanes[i].quarantined
		ce.xs[i] = nil
		if ce.include[i] {
			ce.bufs[i] = ce.cs.LaneX(i, x, ce.bufs[i])
			ce.xs[i] = ce.bufs[i]
		}
	}
}

// cost runs one worst-case evaluation of the master vector x. Exactly
// one adaptive-weight EMA update happens per call, like one scalar
// CostDetail — the invariant checkpoint/resume bit-exactness rests on.
func (ce *cornerEval) cost(x []float64) float64 {
	ce.load(x)
	ce.bw.Run(ce.xs)

	// Nominal failure is candidate failure: WorstCase charges FailCost,
	// exactly like the scalar evaluator.
	ce.evaluated[0] = ce.bw.Lane(0).Err() == nil

	// Corners degrade instead: retry once in place, count the failure,
	// quarantine after a run of them. A failed-but-included corner
	// charges the deterministic worst-case penalty (the same
	// unmeasurable-spec units the scalar cost uses), so one diverging
	// Newton solve or unstable Padé fit never blanks the candidate.
	for i := 1; i < len(ce.xs); i++ {
		if !ce.include[i] {
			ce.evaluated[i] = false
			continue
		}
		name := ce.cs.LaneName(i)
		failed := ce.bw.Lane(i).Err() != nil
		if ce.inj.CornerFail(name) {
			failed = true
		}
		if failed {
			ce.lanes[i].retries++
			if ce.lanes[i].retries == 1 {
				ce.span.Event("corner-retry", "corner", name)
			}
			failed = ce.inj.CornerFail(name) || ce.bw.RerunLane(i, ce.xs[i]) != nil
		}
		if failed {
			ce.lanes[i].fails++
			ce.lanes[i].consec++
			if ce.lanes[i].consec >= cornerQuarantineAfter {
				ce.lanes[i].quarantined = true
				ce.span.Event("corner-quarantined",
					"corner", name, "fails", strconv.Itoa(ce.lanes[i].fails))
			}
		} else {
			ce.lanes[i].consec = 0
		}
		ce.evaluated[i] = !failed
	}
	return ce.cs.WorstCase(ce.bw, ce.include, ce.evaluated).Total
}

// report evaluates the master vector x on the reporting batch and
// itemizes its worst-case cost, like a progress event: the quarantine
// mask applies, but no weight statistic, failure ledger or retry is
// touched. The reporting lanes then hold the per-lane verdicts
// cornerResults reads.
func (ce *cornerEval) report(x []float64) astrx.CostBreakdown {
	ce.load(x)
	ce.rbw.Run(ce.xs)
	for i := range ce.evaluated {
		ce.evaluated[i] = ce.include[i] && ce.rbw.Lane(i).Err() == nil
	}
	return ce.cs.Breakdown(ce.rbw, ce.include, ce.evaluated)
}

// degraded reports whether any corner has been quarantined.
func (ce *cornerEval) degraded() bool {
	for i := 1; i < len(ce.lanes); i++ {
		if ce.lanes[i].quarantined {
			return true
		}
	}
	return false
}

// unstableCount sums the Padé-instability counters over all lanes.
func (ce *cornerEval) unstableCount() int {
	n := 0
	for i := 0; i < ce.cs.K(); i++ {
		n += ce.bw.Lane(i).UnstableCount()
	}
	return n
}

// cornerCheckpoints snapshots the per-corner failure state for the
// checkpoint (corners only, nil for a nominal-only run; the nominal
// lane's unstable counter rides in the checkpoint's existing field).
func (ce *cornerEval) cornerCheckpoints() []CornerCheckpoint {
	var out []CornerCheckpoint
	for i := 1; i < ce.cs.K(); i++ {
		l := ce.lanes[i]
		out = append(out, CornerCheckpoint{
			Name:        ce.cs.LaneName(i),
			Fails:       l.fails,
			Retries:     l.retries,
			Consec:      l.consec,
			Quarantined: l.quarantined,
			Unstable:    ce.bw.Lane(i).UnstableCount(),
		})
	}
	return out
}

// restore rehydrates the per-corner state from a checkpoint. The
// checkpoint must carry exactly this run's corners, in order — resuming
// a cornered run under a different corner selection would silently
// change the cost function mid-run.
func (ce *cornerEval) restore(ck *Checkpoint) error {
	if len(ck.Corners) != ce.cs.K()-1 {
		return fmt.Errorf("oblx: checkpoint has %d corners, run selects %d — wrong corner set?",
			len(ck.Corners), ce.cs.K()-1)
	}
	for i, cc := range ck.Corners {
		lane := i + 1
		if name := ce.cs.LaneName(lane); cc.Name != name {
			return fmt.Errorf("oblx: checkpoint corner %d is %q, run selects %q", i, cc.Name, name)
		}
		ce.lanes[lane] = cornerLane{
			fails:       cc.Fails,
			retries:     cc.Retries,
			consec:      cc.Consec,
			quarantined: cc.Quarantined,
		}
		ce.bw.Lane(lane).SetUnstableCount(cc.Unstable)
	}
	ce.bw.Lane(0).SetUnstableCount(ck.Unstable)
	return nil
}

// failureStats builds the per-corner failure breakdown.
func (ce *cornerEval) failureStats() map[string]CornerFailures {
	out := make(map[string]CornerFailures, ce.cs.K()-1)
	for i := 1; i < ce.cs.K(); i++ {
		l := ce.lanes[i]
		out[ce.cs.LaneName(i)] = CornerFailures{
			Fails:       l.fails,
			Retries:     l.retries,
			Quarantined: l.quarantined,
		}
	}
	return out
}

// cornerResults builds the final per-lane breakdown. Call it after the
// final report(best) so the reporting lanes hold the verdict at the
// returned design; laneDC is the per-lane Newton-polish outcome.
func (ce *cornerEval) cornerResults(laneDC []bool) []CornerResult {
	out := make([]CornerResult, 0, ce.cs.K())
	for i := 0; i < ce.cs.K(); i++ {
		l := ce.lanes[i]
		cr := CornerResult{
			Name:        ce.cs.LaneName(i),
			Quarantined: l.quarantined,
			Evaluated:   ce.evaluated[i],
			DCSolved:    laneDC[i],
			Fails:       l.fails,
			Retries:     l.retries,
		}
		if cr.Evaluated {
			st := ce.rbw.Lane(i).State()
			cr.SpecVals = finiteSpecVals(st.SpecVals)
			cr.AllMet = allSpecsMet(ce.cs.Lane(i), st.SpecVals)
		}
		out = append(out, cr)
	}
	return out
}

// allSpecsMet reports whether every non-objective spec is satisfied
// (normalized good→bad value ≤ 0) at the measured values.
func allSpecsMet(c *astrx.Compiled, specVals map[string]float64) bool {
	for _, s := range c.Deck.Specs {
		if s.Objective {
			continue
		}
		v, ok := specVals[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		if astrx.Normalize(s, v) > 0 {
			return false
		}
	}
	return true
}

// newtonMove builds the gradient-directed move class: every live lane's
// relaxed-dc node-voltage section is driven toward its own corner's
// dc-correct bias by iters damped Newton-Raphson steps at the current
// design variables (each corner has different supplies and thresholds,
// so each needs its own solve). Quarantined corners are skipped — their
// sections are annealing ballast, not worth a solve. A Newton failure
// (real or injected) on every lane declines the proposal, and the
// annealer falls back to its other classes; the full solve also
// declines when every lane's solve returned its starting voltages.
//
// The two variants divide the labor: the single-iteration step move
// tracks each lane's bias by continuation from its own current section,
// while the full solve warm-starts every corner lane from the nominal
// section it just solved. A corner is a small perturbation of the
// nominal operating point, so the nominal bias is an excellent initial
// guess — and, crucially, it lets a corner lane escape a dead basin
// (e.g. an all-devices-cutoff solution, a perfectly valid KCL point)
// that pure continuation from its own history would keep it in forever
// while the max-over-lanes region penalty pins the cost.
func newtonMove(ctx context.Context, ce *cornerEval, label string, iters int) anneal.Move {
	cs := ce.cs
	// The move closure owns its solver scratch: steady-state annealing
	// performs one solve per lane per proposal, and the workspace makes
	// the whole proposal allocation-free. Moves run one at a time on the
	// annealer goroutine, so the capture is safe.
	var (
		work     dcsolve.Workspace
		vbuf     []float64
		nomNodes []float64
		lbuf     = make([][]float64, cs.K())
	)
	return &anneal.FuncMove{
		Label: label,
		Fn: func(cur, next []float64, rng *rand.Rand) bool {
			proposed, moved := false, false
			nomNodes = nomNodes[:0]
			for i := 0; i < cs.K(); i++ {
				if i > 0 && ce.lanes[i].quarantined {
					continue
				}
				c := cs.Lane(i)
				lbuf[i] = cs.LaneX(i, cur, lbuf[i])
				lx := lbuf[i]
				if i > 0 && iters > 1 && len(nomNodes) == cs.NFree {
					copy(lx[c.NUser:], nomNodes)
				}
				dp := c.DCProblem(lx)
				if dp.N() == 0 {
					continue
				}
				vbuf = append(vbuf[:0], lx[c.NUser:]...)
				var sol []float64
				if iters <= 1 {
					stepped, err := dcsolve.Step(dp, vbuf, dcsolve.Options{FailHook: ce.inj.NewtonHook(), Work: &work})
					if err != nil {
						continue
					}
					sol = stepped
				} else {
					r, _ := dcsolve.Solve(ctx, dp, vbuf, dcsolve.Options{
						MaxIter: iters, BestEffort: true, FailHook: ce.inj.NewtonHook(), Work: &work,
					})
					if r == nil {
						continue
					}
					if i == 0 {
						nomNodes = append(nomNodes[:0], r.V...)
					}
					sol = r.V
				}
				moved = moved || !slices.Equal(sol, vbuf)
				copy(lx[c.NUser:], sol)
				cs.StoreLaneNodes(i, lx, next)
				proposed = true
			}
			// A full solve that returned its starting voltages on every
			// lane (the nominal starts from its own section, so it is
			// already dc-correct) was paid for but found nothing to
			// propose; declining it keeps the annealer's T0 calibration,
			// which samples every proposal, from counting it as a zero
			// cost delta.
			if iters > 1 && !moved {
				return false
			}
			return proposed
		},
	}
}

// polishDC runs the final full Newton solve on every live lane's
// node-voltage section. A finished design must be dc-correct within
// simulator tolerances — the paper's formulation guarantees the
// predicted performance only at a KCL-consistent point — so a converged
// Newton bias is kept even when the (penalty-weighted) cost rises
// slightly: reporting performance at a dc-inconsistent point would be
// fiction. It returns the polished master vector, whether every live
// lane converged, and the per-lane verdict (quarantined lanes report
// false — their bias was never polished). A lane whose solve fails
// keeps its section unchanged.
func polishDC(ctx context.Context, ce *cornerEval, x []float64) ([]float64, bool, []bool) {
	cs := ce.cs
	out := append([]float64(nil), x...)
	laneDC := make([]bool, cs.K())
	allOK := true
	var lx []float64
	for i := range laneDC {
		if i > 0 && ce.lanes[i].quarantined {
			continue
		}
		c := cs.Lane(i)
		lx = cs.LaneX(i, out, lx)
		dp := c.DCProblem(lx)
		if dp.N() > 0 {
			r, err := dcsolve.Solve(ctx, dp, lx[c.NUser:], dcsolve.Options{
				MaxIter: 200, GminSteps: 4, FailHook: ce.inj.NewtonHook(),
			})
			if err != nil {
				allOK = false
				continue
			}
			copy(lx[c.NUser:], r.V)
			cs.StoreLaneNodes(i, lx, out)
		}
		laneDC[i] = true
	}
	return out, allOK, laneDC
}
