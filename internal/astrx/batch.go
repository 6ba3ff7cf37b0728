package astrx

import "errors"

// BatchWorkspace evaluates one candidate per corner-set lane (nominal
// first). Each lane is a full scalar EvalWorkspace replaying its own
// corner's plan, and a batch run is a loop of full scalar runs: lane i
// runs bias → jigs → specs exactly as EvalWorkspace.CostDetail does,
// stage clock included. A nominal-only set is the one-lane case.
type BatchWorkspace struct {
	lanes []*EvalWorkspace
}

// errLaneSkipped is the Err of a lane a batch run was told to skip.
var errLaneSkipped = errors.New("astrx: batch lane skipped")

// NewCornerBatch builds a batch evaluator with fresh workspaces, one
// per corner-set lane — for evaluations that must not disturb a run on
// the set's shared workspaces (reporting, benchmarks).
func (cs *CornerSet) NewCornerBatch() *BatchWorkspace {
	bw := &BatchWorkspace{lanes: make([]*EvalWorkspace, cs.K())}
	for i := range bw.lanes {
		bw.lanes[i] = cs.Lane(i).NewWorkspace()
	}
	return bw
}

// Batch returns a batch evaluator over each lane's shared workspace
// (Compiled.Workspace), the one DCProblem and the stage clock of an
// annealing run use. Like the shared workspaces, it is single-goroutine
// state.
func (cs *CornerSet) Batch() *BatchWorkspace {
	bw := &BatchWorkspace{lanes: make([]*EvalWorkspace, cs.K())}
	for i := range bw.lanes {
		bw.lanes[i] = cs.Lane(i).Workspace()
	}
	return bw
}

// K returns the number of lanes.
func (bw *BatchWorkspace) K() int { return len(bw.lanes) }

// Lane exposes lane i's workspace for post-evaluation inspection
// (State, Err, UnstableCount). Its contents are valid until the next
// Run.
func (bw *BatchWorkspace) Lane(i int) *EvalWorkspace { return bw.lanes[i] }

// Batched reports whether lane's factorization for jig j ran in a
// shared multi-lane factorization. Every lane factors on its own scalar
// engine, so it is always false; it stays for telemetry callers (the
// benchmark's astrx.batch_lane_frac counter, which reads 0).
func (bw *BatchWorkspace) Batched(j, lane int) bool { return false }

// Jigs returns the number of small-signal jigs in the compiled plan.
func (bw *BatchWorkspace) Jigs() int { return len(bw.lanes[0].jigs) }

// Run evaluates the candidates xs (len(xs) ≤ K), one full scalar run
// per lane, without computing costs or touching the adaptive-weight
// statistics. A nil xs[i] skips lane i for this call (its Err reports
// the skip) — how corner runs avoid paying for quarantined corners.
// Per-lane results are read via Lane(i).State and Lane(i).Err, the cost
// via CornerSet.WorstCase.
func (bw *BatchWorkspace) Run(xs [][]float64) {
	for i, x := range xs {
		if x == nil {
			bw.lanes[i].err = errLaneSkipped
			continue
		}
		bw.RerunLane(i, x)
	}
}

// RerunLane re-evaluates lane i alone, overwriting the lane's state from
// the last batch run. The per-corner retry policy uses it: a lane whose
// evaluation failed gets one re-attempt before the failure is charged to
// its corner.
func (bw *BatchWorkspace) RerunLane(i int, x []float64) error {
	ws := bw.lanes[i]
	ws.clock.Begin()
	ws.run(x, true)
	ws.clock.End()
	return ws.err
}
