// Command perfbench is the repository benchmark: fixed-seed Table 2
// anneals (anneal-table2), replayed evaluations of committed anneal
// points (eval-replay), and a mixed cold/cache-hit load on an in-process
// oblxd (oblxd-mixed). See README.md in this directory.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload eval-replay --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Two more subcommands exist:
//
//	perfbench genpoints             re-capture testdata/points.json
//	perfbench compare BASE HEAD     compare two sets of result lines
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string // where a traced run writes its spans
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	lines             []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail counts a failed operation and says why on standard error.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
	}
}

// printf adds a human-readable report line.
func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner. A runner measures
// for cfg.seconds (the timed pass) or, with cfg.trace, runs an untraced
// and a traced pass of equal work and fills in the per-layer metrics.
var workloads = map[string]func(context.Context, config, *report) error{
	"anneal-table2": runAnneal,
	"eval-replay":   runReplay,
	"oblxd-mixed":   runOblxd,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "genpoints":
			os.Exit(cmdGenPoints(os.Args[2:]))
		case "compare":
			os.Exit(cmdCompare(os.Args[2:]))
		}
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	for _, l := range rep.lines {
		fmt.Fprintln(out, l)
	}
	line, err := resultLine(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, line)
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "", "workload: anneal-table2, eval-replay or oblxd-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 40, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return cfg, errors.New("--seconds must be positive")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return cfg, errors.New("--trace must be 0 or 1")
	}
	cfg.trace = *traceFlag == 1
	cfg.traceOut = filepath.Join(".bench_build", "perfbench-spans-"+cfg.workload+".jsonl")
	return cfg, nil
}

// run executes one invocation, adds a report line for every metric it
// measured, and keeps for the result line exactly the metric set
// BENCHMARK.json declares for its mode.
func run(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	if err := workloads[cfg.workload](ctx, cfg, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if rep.attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	if _, ok := rep.metrics["rss_mb"]; !ok {
		rep.set("rss_mb", peakRSSMB(), "MB")
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
		rep.set("fail_frac", float64(rep.failed)/float64(rep.attempted), "frac")
		for _, m := range perLayer {
			if _, ok := rep.metrics[m.name]; !ok {
				rep.set(m.name, 0, m.unit) // a layer this workload leaves idle
			}
		}
	}
	names := make([]string, 0, len(rep.metrics))
	for name := range rep.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.metrics[name]
		rep.printf("%-28s %14.6g %s", name, m.Value, m.Unit)
	}
	keep := map[string]metric{}
	for _, m := range want {
		v, ok := rep.metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", m.name)
		}
		if v.Unit != m.unit {
			return nil, fmt.Errorf("metric %s in %s, want %s", m.name, v.Unit, m.unit)
		}
		keep[m.name] = v
	}
	rep.metrics = keep
	return rep, nil
}

func resultLine(rep *report) (string, error) {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	return string(b), err
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// repeatSetup runs setup n times, closing all but the last result, and
// returns the last result with every set-up's time in seconds.
func repeatSetup[T any](n int, setup func() (T, error), closeFn func(T)) (T, []float64, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			if i > 0 && closeFn != nil {
				closeFn(last)
			}
			var zero T
			return zero, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i > 0 && closeFn != nil {
			closeFn(last)
		}
		last = v
	}
	return last, times, nil
}

// spin busy-waits for d, the planted slowdown's cost.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

func cmdGenPoints(args []string) int {
	fs := flag.NewFlagSet("genpoints", flag.ContinueOnError)
	out := fs.String("out", filepath.Join("perfbench", "testdata", "points.json"), "output file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := genPoints(*out); err != nil {
		fmt.Fprintln(os.Stderr, "genpoints:", err)
		return 1
	}
	return 0
}
