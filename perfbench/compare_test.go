package main

import (
	"encoding/json"
	"os"
	"testing"
)

// pairRun measures one interleaved pair of eval-replay runs, the second
// with a planted slowdown: single sweeps alternate between the two
// sides, so both see the same stretch of machine time, as the two
// commits of a comparison do when their runs alternate.
func pairRun(t *testing.T, in *replayInput, plant float64) (base, head map[string]float64) {
	t.Helper()
	var sides [2]replayPass
	plants := [2]float64{0, plant}
	for i := 0; i < 8; i++ {
		for j := 0; j < 2; j++ {
			side := (i + j) % 2 // alternate which side goes first
			p, err := passReplay(in, 0, 1, nil, plants[side], nil)
			if err != nil {
				t.Fatal(err)
			}
			if p.mismatches > 0 {
				t.Fatalf("%d replayed evals missed their golden cost", p.mismatches)
			}
			sides[side].scalar = append(sides[side].scalar, p.scalar...)
			sides[side].corner = append(sides[side].corner, p.corner...)
		}
	}
	metrics := func(p *replayPass) map[string]float64 {
		rep := newReport()
		replayEndToEnd(rep, p, 1)
		rep.set("rss_mb", 1, "MB")
		out := map[string]float64{}
		for k, m := range rep.metrics {
			out[k] = m.Value
		}
		return out
	}
	return metrics(&sides[0]), metrics(&sides[1])
}

func statusOf(vs []verdict, name string) string {
	for _, v := range vs {
		if v.Name == name {
			return v.Status
		}
	}
	return ""
}

// TestCompareFlagsPlantedSlowdown compares ten interleaved pairs of
// eval-replay, one side with a 15% slowdown planted in the benchmark's
// own eval wrapper, and checks the comparison flags the slowdown on
// throughput and latency, while ten pairs of unchanged runs compare
// without a regression.
func TestCompareFlagsPlantedSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("measures for ~25s")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	in, err := setupReplay(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	compare := func(plant float64) []verdict {
		var base, head []map[string]float64
		for i := 0; i < 10; i++ {
			b, h := pairRun(t, in, plant)
			base, head = append(base, b), append(head, h)
		}
		vs := compareRuns(spec, base, head)
		for _, v := range vs {
			t.Logf("plant %.2f: %s base %.4g head %.4g worse %+.1f%% spread %.1f%% losses %d %s",
				plant, v.Name, v.Base, v.Head, 100*v.Worse, 100*v.Spread, v.Losses, v.Status)
		}
		return vs
	}
	planted := compare(0.15)
	for _, name := range []string{"work_per_s", "op_p50_ms"} {
		if s := statusOf(planted, name); s != statusSlower && s != statusRegressed {
			t.Errorf("planted 15%% slowdown: %s verdict %q, want slower or regressed", name, s)
		}
	}
	for _, v := range compare(0) {
		if v.Status == statusRegressed {
			t.Errorf("unchanged runs: %s verdict %q (worse %+.1f%%, spread %.1f%%)",
				v.Name, v.Status, 100*v.Worse, 100*v.Spread)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{
		{Name: "lat", Better: "lower", Bound: 0.1},
		{Name: "rate", Better: "higher", Bound: 0.1},
	}}
	runs := func(lat, rate []float64) []map[string]float64 {
		var out []map[string]float64
		for i := range lat {
			out = append(out, map[string]float64{"lat": lat[i], "rate": rate[i]})
		}
		return out
	}
	tight := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name      string
		lat, rate []float64
		wantLat   string
		wantRate  string
	}{
		{"unchanged", tight, tight, statusSame, statusSame},
		{"5% worse", scale(tight, 1.05), scale(tight, 1/1.05), statusSlower, statusSlower},
		{"20% worse", scale(tight, 1.2), scale(tight, 0.8), statusRegressed, statusRegressed},
		{"5% better", scale(tight, 0.95), scale(tight, 1.05), statusFaster, statusFaster},
	}
	for _, c := range cases {
		vs := compareRuns(spec, runs(tight, tight), runs(c.lat, c.rate))
		if got := statusOf(vs, "lat"); got != c.wantLat {
			t.Errorf("%s: lat %q, want %q", c.name, got, c.wantLat)
		}
		if got := statusOf(vs, "rate"); got != c.wantRate {
			t.Errorf("%s: rate %q, want %q", c.name, got, c.wantRate)
		}
	}
	// A change beyond the bound that only half the pairs show is
	// unresolved.
	mixed := []float64{130, 70, 130, 70, 130, 130, 70, 130, 70, 130}
	vs := compareRuns(spec, runs(tight, tight), runs(mixed, tight))
	if got := statusOf(vs, "lat"); got != statusUnresolved {
		t.Errorf("mixed: lat %q, want %q", got, statusUnresolved)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with what the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the benchmark", w.Name)
		}
	}
}
