package astrx

import (
	"context"
	"fmt"
)

// BatchWorkspace evaluates K candidate design vectors, one per lane.
// Each lane is a full scalar EvalWorkspace; a batch run walks the lanes
// through the pipeline stage by stage (bias, each jig, specs), so a
// cancellation lands between stages for every lane at once. A lane's
// arithmetic is exactly its scalar evaluation.
//
// The adaptive cost-weight EMA updates of CostsInto are applied in lane
// order after all lanes have run, which is exactly the sequence of side
// effects K sequential evaluations produce. After warm-up a batch
// evaluation performs zero heap allocations, like the scalar hot path.
type BatchWorkspace struct {
	lanes []*EvalWorkspace
	live  []bool
}

// NewBatchWorkspace allocates a K-lane batch evaluator for this
// compiled problem. K must be at least 1.
func (c *Compiled) NewBatchWorkspace(k int) *BatchWorkspace {
	if k < 1 {
		panic(fmt.Sprintf("astrx: NewBatchWorkspace: k = %d", k))
	}
	bw := newBatch(k)
	for i := range bw.lanes {
		bw.lanes[i] = c.NewWorkspace()
	}
	return bw
}

// NewCornerBatch builds a K-lane batch evaluator with one lane per
// corner-set lane (nominal first); each lane replays its own corner's
// compiled plan.
func (set *CornerSet) NewCornerBatch() *BatchWorkspace {
	bw := newBatch(set.K())
	for i := range bw.lanes {
		bw.lanes[i] = set.Lane(i).NewWorkspace()
	}
	return bw
}

func newBatch(k int) *BatchWorkspace {
	return &BatchWorkspace{
		lanes: make([]*EvalWorkspace, k),
		live:  make([]bool, k),
	}
}

// K returns the number of candidate lanes.
func (bw *BatchWorkspace) K() int { return len(bw.lanes) }

// Lane exposes lane i's workspace for post-evaluation inspection
// (State, Err, UnstableCount). Its contents are valid until the next
// CostsInto call.
func (bw *BatchWorkspace) Lane(i int) *EvalWorkspace { return bw.lanes[i] }

// Batched reports whether lane's factorization for jig j ran in a
// shared multi-lane factorization. Every lane factors on its own scalar
// engine, so it is always false; it stays for telemetry callers (the
// benchmark's astrx.batch_lane_frac counter, which reads 0).
func (bw *BatchWorkspace) Batched(j, lane int) bool { return false }

// Jigs returns the number of small-signal jigs in the compiled plan.
func (bw *BatchWorkspace) Jigs() int { return len(bw.lanes[0].jigs) }

// CostsInto evaluates the candidates xs (len(xs) ≤ K) and writes each
// total cost into dst[:len(xs)]. Failed candidates cost Opt.FailCost,
// as in the scalar path; per-lane detail is available via Lane(i).Err.
func (bw *BatchWorkspace) CostsInto(dst []float64, xs [][]float64) {
	bw.Run(xs)
	// Cost in lane order so the adaptive-weight EMA sees the identical
	// update sequence as len(xs) sequential evaluations.
	for i := range xs {
		dst[i] = bw.lanes[i].costFromRun(true).Total
	}
}

// RerunLane re-evaluates lane i alone (bias → jigs → specs),
// overwriting the lane's state from the last batch run. The per-corner
// retry policy uses it: a lane whose batched evaluation failed gets one
// sequential re-attempt before the failure is charged to its corner.
func (bw *BatchWorkspace) RerunLane(i int, x []float64) error {
	return bw.lanes[i].Eval(x)
}

// Run evaluates the candidates xs (len(xs) ≤ K) without computing costs
// or touching the compiled problem's adaptive-weight statistics. A nil
// xs[i] skips lane i for this call (its Err reports the skip) — how
// corner batches avoid paying for quarantined corners. Per-lane results
// are read via Lane(i).State and Lane(i).Err.
func (bw *BatchWorkspace) Run(xs [][]float64) {
	bw.runCtx(nil, xs) //nolint:errcheck // nil ctx never cancels
}

// RunCtx is Run with cooperative cancellation: the context is checked
// between pipeline stages, and on cancellation every lane still pending
// is marked failed with the context's error and RunCtx returns it
// promptly. The workspace remains fully reusable: the next Run starts
// from a clean slate.
func (bw *BatchWorkspace) RunCtx(ctx context.Context, xs [][]float64) error {
	return bw.runCtx(ctx, xs)
}

func (bw *BatchWorkspace) runCtx(ctx context.Context, xs [][]float64) error {
	k := len(xs)
	if k > len(bw.lanes) {
		panic(fmt.Sprintf("astrx: batch: %d candidates > %d lanes", k, len(bw.lanes)))
	}
	live := bw.live[:k]
	cancelled := func() error {
		if ctx == nil {
			return nil
		}
		if err := ctx.Err(); err != nil {
			for i := range live {
				if live[i] {
					bw.lanes[i].err = fmt.Errorf("astrx: batch cancelled: %w", err)
					live[i] = false
				}
			}
			return err
		}
		return nil
	}
	for i := range live {
		live[i] = true
	}
	if err := cancelled(); err != nil {
		return err
	}

	// Bias per lane: node voltages, device operating points, KCL.
	for i := range live {
		ws := bw.lanes[i]
		if xs[i] == nil {
			ws.err = fmt.Errorf("astrx: batch lane %d skipped", i)
			live[i] = false
			continue
		}
		ws.run(xs[i], false)
		live[i] = ws.err == nil
	}

	// Jigs, one stage at a time across the lanes. A lane that fails is
	// dead for all remaining work, exactly like the scalar evaluator's
	// early return.
	for j := 0; j < bw.Jigs(); j++ {
		if err := cancelled(); err != nil {
			return err
		}
		for i := range live {
			if !live[i] {
				continue
			}
			ws := bw.lanes[i]
			if err := ws.evalJig(ws.plan.jigs[j], &ws.jigs[j]); err != nil {
				ws.err = err
				live[i] = false
			}
		}
	}
	if err := cancelled(); err != nil {
		return err
	}

	for i := range live {
		if live[i] {
			bw.lanes[i].evalSpecs()
		}
	}
	return nil
}
