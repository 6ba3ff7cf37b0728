package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		med        float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 2, 3},
		{[]float64{5.5, 1.25, 9, 4, 4, 7, 2}, 4, 2, 4, 7},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{10000, 99.9}, {100000, 99.99}, {10_000_000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 {
			if beyond := float64(c.n) * (1 - p/100); beyond < 10-1e-9 {
				t.Errorf("n=%d: p%v leaves %.2f samples beyond it", c.n, p, beyond)
			}
		}
	}
}

func TestSelfTimeSubtractsChildrenAndStages(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.Add("root", "bench", -1, at(0), at(100))
	a := tr.Add("a", "oblx", root, at(10), at(50))
	tr.Add("b", "server", root, at(40), at(60)) // overlaps a by 10ms
	tr.AddVirtual("eval:fit", "awe", a, 15*time.Millisecond)
	self := tr.LayerSelf()
	want := map[string]time.Duration{
		"bench":  50 * time.Millisecond, // 100 - union(10..60)
		"oblx":   25 * time.Millisecond, // 40 - 15 of stages
		"server": 20 * time.Millisecond,
		"awe":    15 * time.Millisecond,
	}
	for l, w := range want {
		if self[l] != w {
			t.Errorf("self[%s] = %v, want %v", l, self[l], w)
		}
	}
}
