package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict is the comparison of one metric between two sets of runs.
type verdict struct {
	Name       string
	Base, Head float64 // medians
	// Worse is the median over pairs of head's change in the worse
	// direction, as a share of base: interleaved pairs share the
	// machine's drift, so their differences spread less than either
	// side's runs.
	Worse  float64
	Spread float64 // base's quartile distance as a share of its median
	Losses int     // pairs in which head was worse
	Wins   int     // pairs in which head was better
	Pairs  int
	Status string
}

// Verdict statuses. "regressed" fails the comparison.
const (
	statusSame       = "same"
	statusSlower     = "slower"     // consistently worse, within the bound
	statusFaster     = "faster"     // consistently better, beyond base's spread
	statusRegressed  = "regressed"  // consistently worse, beyond the bound
	statusUnresolved = "unresolved" // beyond the bound, but not consistently
)

// compareRuns compares head runs against base runs, paired in order, on
// every end-to-end metric of spec. Head is consistently worse when it
// loses at least nine tenths of the pairs (a sign test: 9 of 10 by
// chance has p < 0.011); it regressed when it is consistently worse by
// more than the metric's bound. A gain needs more: nine tenths of the
// pairs won and a change beyond base's own quartile spread. A change
// beyond the bound that is not consistent is unresolved: run more
// pairs.
func compareRuns(spec *benchSpec, base, head []map[string]float64) []verdict {
	var out []verdict
	pairs := min(len(base), len(head))
	for _, m := range spec.EndToEnd {
		bv, hv := column(base, m.Name), column(head, m.Name)
		v := verdict{Name: m.Name, Base: median(bv), Head: median(hv), Pairs: pairs}
		sign := 1.0 // worse = higher
		if m.Better == "higher" {
			sign = -1
		}
		q1, q2, q3 := quartiles(bv)
		v.Spread = (q3 - q1) / math.Abs(q2)
		var rel []float64
		for i := 0; i < pairs; i++ {
			d := sign * (hv[i] - bv[i])
			switch {
			case d > 0:
				v.Losses++
			case d < 0:
				v.Wins++
			}
			rel = append(rel, d/math.Abs(bv[i]))
		}
		v.Worse = median(rel)
		consistentlyWorse := 10*v.Losses >= 9*pairs
		switch {
		case consistentlyWorse && v.Worse > m.Bound:
			v.Status = statusRegressed
		case consistentlyWorse:
			v.Status = statusSlower
		case 10*v.Wins >= 9*pairs && -v.Worse > v.Spread:
			v.Status = statusFaster
		case math.Abs(v.Worse) > m.Bound:
			v.Status = statusUnresolved
		default:
			v.Status = statusSame
		}
		out = append(out, v)
	}
	return out
}

func column(runs []map[string]float64, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r[name]
	}
	return out
}

// readResults reads the result lines of a file of runs: every line that
// is a result JSON object, in order.
func readResults(path string) ([]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []map[string]float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r struct {
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Metrics == nil {
			continue
		}
		vals := map[string]float64{}
		for k, m := range r.Metrics {
			vals[k] = m.Value
		}
		runs = append(runs, vals)
	}
	return runs, sc.Err()
}

// cmdCompare prints the verdict of every end-to-end metric for two files
// of result lines and exits 1 when one regressed.
func cmdCompare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-spec BENCHMARK.json] BASE HEAD")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var sets [2][]map[string]float64
	for i := range sets {
		if sets[i], err = readResults(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
		if len(sets[i]) == 0 {
			fmt.Fprintf(os.Stderr, "compare: no result lines in %s\n", fs.Arg(i))
			return 2
		}
	}
	fmt.Printf("%-12s %14s %14s %9s %9s %7s  %s\n", "metric", "base", "head", "worse", "spread", "losses", "verdict")
	code := 0
	for _, v := range compareRuns(spec, sets[0], sets[1]) {
		fmt.Printf("%-12s %14.6g %14.6g %+8.1f%% %8.1f%% %3d/%-3d  %s\n",
			v.Name, v.Base, v.Head, 100*v.Worse, 100*v.Spread, v.Losses, v.Pairs, v.Status)
		if v.Status == statusRegressed {
			code = 1
		}
	}
	return code
}
