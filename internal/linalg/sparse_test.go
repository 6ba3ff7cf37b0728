package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// mnaRandom builds a random MNA-patterned matrix: nNodes node rows with
// conductance stamps (symmetric pattern, dominant-ish diagonal) plus
// nBranch voltage-source branch rows (±1 couplings, structurally zero
// diagonal) — the shape the jig matrices actually have.
func mnaRandom(rng *rand.Rand, nNodes, nBranch int) *Matrix {
	n := nNodes + nBranch
	a := NewMatrix(n, n)
	// Conductance graph: each node gets a ground tie plus a few random
	// neighbor conductances. The spread is kept to a couple of decades so
	// the matrices stay well conditioned — 1e-12 agreement between two
	// pivot orders is only meaningful when cond(A)·eps is below it; the
	// genuinely ill-conditioned regime is covered by the singular-parity
	// and growth-guard tests.
	for i := 0; i < nNodes; i++ {
		a.Add(i, i, 0.1+rng.Float64()) // ground tie
		for e := 0; e < 2; e++ {
			j := rng.Intn(nNodes)
			if j == i {
				continue
			}
			g := math.Exp(0.8 * rng.NormFloat64())
			a.Add(i, i, g)
			a.Add(j, j, g)
			a.Add(i, j, -g)
			a.Add(j, i, -g)
		}
		// Occasional VCCS-style asymmetric stamp.
		if rng.Intn(3) == 0 {
			j := rng.Intn(nNodes)
			if j != i {
				a.Add(i, j, 0.3*rng.NormFloat64())
			}
		}
	}
	// Branch rows: v(p) - v(q) = 0 structure.
	for b := 0; b < nBranch; b++ {
		br := nNodes + b
		p := rng.Intn(nNodes)
		q := rng.Intn(nNodes)
		if q == p {
			q = (p + 1) % nNodes
		}
		a.Add(p, br, 1)
		a.Add(q, br, -1)
		a.Add(br, p, 1)
		a.Add(br, q, -1)
	}
	return a
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		s := math.Max(1, math.Max(math.Abs(a[i]), math.Abs(b[i])))
		if d/s > m {
			m = d / s
		}
	}
	return m
}

// TestSparseMatchesDenseProperty factors random MNA-patterned matrices
// on both paths and demands 1e-12 agreement of the solutions.
func TestSparseMatchesDenseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var auto AutoLU
	var dense LU
	sparseRuns := 0
	for trial := 0; trial < 300; trial++ {
		nNodes := 2 + rng.Intn(12)
		nBranch := rng.Intn(3)
		a := mnaRandom(rng, nNodes, nBranch)
		n := a.Rows
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		errD := dense.Factor(a)
		errS := auto.Factor(a)
		if (errD == nil) != (errS == nil) {
			t.Fatalf("trial %d: dense err %v, auto err %v", trial, errD, errS)
		}
		if errD != nil {
			continue
		}
		xd := make([]float64, n)
		xs := make([]float64, n)
		dense.SolveInto(xd, b)
		auto.SolveInto(xs, b)
		if d := maxAbsDiff(xd, xs); d > 1e-12 {
			t.Fatalf("trial %d (n=%d sparse=%v): sparse vs dense diff %.3e", trial, n, auto.Sparse(), d)
		}
		if auto.Sparse() {
			sparseRuns++
			st := auto.Stats()
			if st.Rows != n || st.NNZ == 0 || st.FillNNZ < st.NNZ {
				t.Fatalf("trial %d: bad stats %+v", trial, st)
			}
		}
	}
	if sparseRuns < 200 {
		t.Fatalf("sparse path exercised only %d/300 trials", sparseRuns)
	}
}

// TestSparseSingularParity checks that structurally and numerically
// singular matrices report ErrSingular identically on both paths.
func TestSparseSingularParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var auto AutoLU
	var dense LU
	for trial := 0; trial < 100; trial++ {
		a := mnaRandom(rng, 2+rng.Intn(8), rng.Intn(2))
		n := a.Rows
		switch trial % 3 {
		case 0: // zero row
			r := rng.Intn(n)
			for j := 0; j < n; j++ {
				a.Set(r, j, 0)
			}
		case 1: // zero column
			c := rng.Intn(n)
			for i := 0; i < n; i++ {
				a.Set(i, c, 0)
			}
		case 2: // duplicated row (rank deficient)
			r1, r2 := rng.Intn(n), rng.Intn(n)
			if r1 == r2 {
				r2 = (r1 + 1) % n
			}
			for j := 0; j < n; j++ {
				a.Set(r2, j, a.At(r1, j))
			}
		}
		errD := dense.Factor(a)
		errS := auto.Factor(a)
		if (errD == nil) != (errS == nil) {
			t.Fatalf("trial %d: dense err %v, auto err %v", trial, errD, errS)
		}
		if errD != nil && errS != ErrSingular {
			// AutoLU's fallback must surface the dense verdict verbatim.
			t.Fatalf("trial %d: auto error %v, want ErrSingular", trial, errS)
		}
	}
}

// TestSparseGrowthFallback builds a matrix whose structural pivot order
// is numerically terrible (tiny leading pivot on a dense pattern) and
// checks the guard routes it to the dense path with correct results.
func TestSparseGrowthFallback(t *testing.T) {
	n := 4
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 1+float64(i*n+j)/7)
		}
	}
	a.Set(0, 0, 1e-13) // structural order pivots here first → huge growth
	// Perturb to keep it nonsingular.
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(i)*0.37)
	}
	var sym Symbolic
	var pat Pattern
	pat.Scan(a)
	s := NewSymbolic(&pat)
	if s == nil {
		t.Fatal("dense pattern should have a symbolic analysis")
	}
	sym = *s
	var slu SparseLU
	slu.reset(&sym)
	if err := slu.Factor(a); err != errSparseGuard {
		t.Fatalf("sparse factor error = %v, want guard trip", err)
	}
	var auto AutoLU
	if err := auto.Factor(a); err != nil {
		t.Fatalf("auto factor: %v", err)
	}
	if auto.Sparse() {
		t.Fatal("auto should have fallen back to dense")
	}
	b := []float64{1, 2, 3, 4}
	var dense LU
	if err := dense.Factor(a); err != nil {
		t.Fatalf("dense factor: %v", err)
	}
	xd := dense.Solve(b)
	xa := make([]float64, n)
	auto.SolveInto(xa, b)
	if d := maxAbsDiff(xd, xa); d != 0 {
		t.Fatalf("fallback solve differs from dense by %g", d)
	}
}

// TestSparseComplexMatchesDense runs the property suite on the complex
// variant with (G + jωC)-shaped values.
func TestSparseComplexMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var auto AutoCLU
	var dense CLU
	sparseRuns := 0
	for trial := 0; trial < 200; trial++ {
		ar := mnaRandom(rng, 2+rng.Intn(10), rng.Intn(3))
		n := ar.Rows
		a := NewCMatrix(n, n)
		for i, v := range ar.Data {
			if v != 0 {
				a.Data[i] = complex(v, rng.NormFloat64()*math.Abs(v))
			}
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		errD := dense.Factor(a)
		errS := auto.Factor(a)
		if (errD == nil) != (errS == nil) {
			t.Fatalf("trial %d: dense err %v, auto err %v", trial, errD, errS)
		}
		if errD != nil {
			continue
		}
		xd := make([]complex128, n)
		xs := make([]complex128, n)
		dense.SolveInto(xd, b)
		auto.SolveInto(xs, b)
		worst := 0.0
		for i := range xd {
			d := cmplx.Abs(xd[i] - xs[i])
			s := math.Max(1, math.Max(cmplx.Abs(xd[i]), cmplx.Abs(xs[i])))
			if d/s > worst {
				worst = d / s
			}
		}
		if worst > 1e-12 {
			t.Fatalf("trial %d (n=%d sparse=%v): diff %.3e", trial, n, auto.Sparse(), worst)
		}
		if auto.Sparse() {
			sparseRuns++
		}
	}
	if sparseRuns < 120 {
		t.Fatalf("sparse path exercised only %d/200 trials", sparseRuns)
	}
}

// TestSymbolicStructurallySingular checks empty rows are rejected at
// symbolic time.
func TestSymbolicStructurallySingular(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	// row 2 empty
	var pat Pattern
	pat.Scan(a)
	if s := NewSymbolic(&pat); s != nil {
		t.Fatal("expected nil symbolic for structurally singular pattern")
	}
}

// TestAutoLUZeroAlloc pins the warm steady state: repeated factor+solve
// cycles with a stable pattern must not allocate.
func TestAutoLUZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := mnaRandom(rng, 10, 2)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	var auto AutoLU
	x := make([]float64, n)
	if err := auto.Factor(a); err != nil {
		t.Fatalf("warmup factor: %v", err)
	}
	if !auto.Sparse() {
		t.Skip("pattern fell back to dense; alloc pin applies to the sparse path")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := auto.Factor(a); err != nil {
			t.Fatalf("factor: %v", err)
		}
		auto.SolveInto(x, b)
	})
	if allocs != 0 {
		t.Fatalf("AutoLU factor+solve allocates %v/op, want 0", allocs)
	}
}
