package bench

import (
	"testing"
)

// TestBatchMatchesSequential pins the batched K-candidate evaluator to
// the scalar path bit-for-bit: for every Table 2 deck, evaluating a
// candidate sequence through BatchWorkspace.CostsInto must produce the
// identical costs, spec values, and adaptive-weight trajectory as
// evaluating the same candidates one at a time on per-candidate
// workspaces. Exact equality (not 1e-12) is intentional — each lane is
// a scalar workspace walked stage by stage, so any difference at all
// means the batch plumbing reordered arithmetic or leaked state between
// lanes.
func TestBatchMatchesSequential(t *testing.T) {
	const K = 4
	for _, ckt := range Table2Suite {
		ckt := ckt
		t.Run(string(ckt), func(t *testing.T) {
			seqC, err := Compile(ckt)
			if err != nil {
				t.Fatal(err)
			}
			batC, err := Compile(ckt)
			if err != nil {
				t.Fatal(err)
			}
			seq := evalSequence(seqC, 3*K-1) // 3 full batches
			bw := batC.NewBatchWorkspace(K)
			costs := make([]float64, K)
			for off := 0; off+K <= len(seq); off += K {
				xs := seq[off : off+K]
				// Sequential reference: fresh workspace per candidate, like
				// the batch lanes, sharing the compiled problem's weights.
				want := make([]float64, K)
				wantSpecs := make([]map[string]float64, K)
				for i, x := range xs {
					ws := seqC.NewWorkspace()
					want[i] = ws.CostDetail(x).Total
					wantSpecs[i] = ws.State().SpecVals
				}
				bw.CostsInto(costs, xs)
				for i := range xs {
					if costs[i] != want[i] {
						t.Errorf("batch %d lane %d: cost %.17g, sequential %.17g",
							off/K, i, costs[i], want[i])
					}
					gotSpecs := bw.Lane(i).State().SpecVals
					if bw.Lane(i).Err() != nil {
						continue
					}
					for name, wv := range wantSpecs[i] {
						if gv := gotSpecs[name]; gv != wv && !(gv != gv && wv != wv) {
							t.Errorf("batch %d lane %d spec %s: %.17g, sequential %.17g",
								off/K, i, name, gv, wv)
						}
					}
				}
			}
		})
	}
}

// TestBatchShortAndFailedLanes exercises a partial batch (fewer
// candidates than lanes) and a poisoned candidate: the failed lane must
// cost FailCost without disturbing its neighbors.
func TestBatchShortAndFailedLanes(t *testing.T) {
	c1, err := Compile(SimpleOTA)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compile(SimpleOTA)
	if err != nil {
		t.Fatal(err)
	}
	seq := evalSequence(c1, 2)
	bad := make([]float64, len(seq[1]))
	copy(bad, seq[1])
	bad[0] = 0 // zero width: device geometry fails the evaluation
	xs := [][]float64{seq[0], bad, seq[2]}

	want := make([]float64, len(xs))
	var failed []bool
	for i, x := range xs {
		ws := c1.NewWorkspace()
		want[i] = ws.CostDetail(x).Total
		failed = append(failed, ws.Err() != nil)
	}

	bw := c2.NewBatchWorkspace(5) // 2 idle lanes
	costs := make([]float64, len(xs))
	bw.CostsInto(costs, xs)
	for i := range xs {
		if costs[i] != want[i] {
			t.Errorf("lane %d: cost %.17g, sequential %.17g", i, costs[i], want[i])
		}
		if (bw.Lane(i).Err() != nil) != failed[i] {
			t.Errorf("lane %d: batch err %v, sequential failed %v", i, bw.Lane(i).Err(), failed[i])
		}
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

// TestBatchZeroAlloc pins the batched hot path: after warm-up a full
// K-candidate evaluation performs zero heap allocations, preserving the
// scalar path's guarantee. The candidates are small perturbations of
// one design — the population shape of the batch consumers (yield
// sampling, corner lanes).
func TestBatchZeroAlloc(t *testing.T) {
	c, err := Compile(BiCMOSTwoStage)
	if err != nil {
		t.Fatal(err)
	}
	const K = 4
	base := evalSequence(c, 0)[0]
	xs := make([][]float64, K)
	for i := range xs {
		x := make([]float64, len(base))
		for p, v := range base {
			x[p] = v * (1 + 1e-4*float64(i*len(base)+p%7))
		}
		xs[i] = x
	}
	bw := c.NewBatchWorkspace(K)
	costs := make([]float64, K)
	bw.CostsInto(costs, xs) // warm up lazy scratch
	allocs := testing.AllocsPerRun(20, func() {
		bw.CostsInto(costs, xs)
	})
	if allocs != 0 {
		t.Errorf("batched eval allocates %.1f/batch, want 0", allocs)
	}
}
