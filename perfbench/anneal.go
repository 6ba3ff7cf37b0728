package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"astrx/internal/anneal"
	"astrx/internal/astrx"
	"astrx/internal/bench"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
	"astrx/internal/telemetry"
	"astrx/internal/verify"
)

// The anneal-table2 input set: every Table 2 deck at each of these
// anneal seeds, with a fixed move budget and no freezing, so every run
// makes annealMoves moves. The seeds are fixed rather than drawn from
// the workload seed: moves/s depends on the trajectory (it differed by
// up to 25% between seed sets, and single runs differ by 40x when the
// move selector locks onto newton-full), so a fixed set is what lets two
// commits be compared. The workload seed orders the runs.
var annealSeeds = []int64{1, 2}

const annealMoves = 3000

// degenerateShare is the share of proposals one move class must take
// for a run to be flagged degenerate (selector lock-in).
const degenerateShare = 0.9

// stageLayer maps each eval pipeline stage to the module that runs it.
var stageLayer = map[string]string{
	"bias": "astrx", "stamp": "astrx", "specs": "astrx",
	"factor": "linalg", "solve": "linalg",
	"moments": "awe", "fit": "awe",
}

// stageMetric maps each eval pipeline stage to its per-layer metric.
var stageMetric = map[string]string{
	"bias": "astrx.bias_us", "stamp": "astrx.stamp_us", "specs": "astrx.specs_us",
	"factor": "linalg.factor_us", "solve": "linalg.solve_us",
	"moments": "awe.moments_us", "fit": "awe.fit_us",
}

// stageTotals accumulates telemetry.EvalTimer breakdowns.
type stageTotals struct {
	seconds map[string]float64
	evals   map[string]int64
}

func newStageTotals() *stageTotals {
	return &stageTotals{seconds: map[string]float64{}, evals: map[string]int64{}}
}

func (st *stageTotals) add(rows []telemetry.StageBreakdown) {
	for _, b := range rows {
		st.seconds[b.Stage] += b.TotalSeconds
		st.evals[b.Stage] += b.SampledEvals
	}
}

func (st *stageTotals) total() float64 {
	var s float64
	for _, v := range st.seconds {
		s += v
	}
	return s
}

// report sets the mean per-eval time of each stage.
func (st *stageTotals) report(rep *report) {
	for stage, name := range stageMetric {
		if n := st.evals[stage]; n > 0 {
			rep.set(name, st.seconds[stage]/float64(n)*1e6, "us")
		}
	}
}

// attach records each stage's time as a virtual child of span parent.
func attachStages(tr *Tracer, parent int, rows []telemetry.StageBreakdown) {
	for _, b := range rows {
		tr.AddVirtual("eval:"+b.Stage, stageLayer[b.Stage], parent, time.Duration(b.TotalSeconds*1e9))
	}
}

type annealInput struct {
	decks []*netlist.Deck
	runs  []annealRun
}

type annealRun struct {
	deck int
	seed int64
}

// setupAnneal parses and compiles the Table 2 decks, recording both
// into tr.
func setupAnneal(tr *Tracer, seed int64) (*annealInput, error) {
	in := &annealInput{}
	for _, c := range bench.Table2Suite {
		sp := tr.Begin("netlist.Parse", "netlist", -1)
		d, err := netlist.Parse(bench.DeckSource(c))
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", c, err)
		}
		sp = tr.Begin("astrx.Compile", "astrx", -1)
		_, err = astrx.Compile(d, astrx.CostOptions{})
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", c, err)
		}
		in.decks = append(in.decks, d)
	}
	for i := range in.decks {
		for _, s := range annealSeeds {
			in.runs = append(in.runs, annealRun{i, s})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(in.runs), func(a, b int) { in.runs[a], in.runs[b] = in.runs[b], in.runs[a] })
	return in, nil
}

// runSummary is what the benchmark keeps of one oblx.Result. Keeping
// every Result (compiled deck, eval state) would make peak memory grow
// with the number of runs the machine's speed allowed.
type runSummary struct {
	Moves, EvalCount, Accepted int
	Failed                     int // numerical failures absorbed
	Cost                       float64
	DCSolved                   bool
	MoveStats                  []anneal.MoveStat
}

// annealOutcome is one oblx.Run with its verification.
type annealOutcome struct {
	run     annealRun
	wall    time.Duration
	res     *runSummary // nil when the run failed
	verify  time.Duration
	relErr  float64
	sparse  float64 // share of jigs whose last factorization was sparse
	top     string
	topFrac float64
}

// annealPass is one pass over whole cycles of the run set.
type annealPass struct {
	outcomes []annealOutcome
	wall     time.Duration
	cycles   int
	stages   *stageTotals
	mallocs  uint64
	bytes    uint64
}

// passAnneal runs whole cycles over in.runs: at least minCycles, then
// more while another cycle is expected to end within seconds. With tr
// set, every eval's stages are timed and every call is a span. between,
// when set, runs after every oblx.Run, outside the timed calls.
func passAnneal(ctx context.Context, in *annealInput, seconds float64, minCycles int, tr *Tracer, between func() error) (*annealPass, error) {
	p := &annealPass{stages: newStageTotals()}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := tr.Begin("anneal-table2", "bench", -1)
	t0 := time.Now()
	for {
		c0 := time.Now()
		for _, r := range in.runs {
			o, err := annealOnce(ctx, in, r, tr, root, p.stages)
			if err != nil {
				return nil, err
			}
			p.outcomes = append(p.outcomes, o)
			if between != nil {
				if err := between(); err != nil {
					return nil, err
				}
			}
		}
		p.cycles++
		el, cyc := time.Since(t0).Seconds(), time.Since(c0).Seconds()
		if p.cycles >= minCycles && (minCycles > 0 || el+cyc > seconds*1.05) {
			break
		}
	}
	p.wall = time.Since(t0)
	tr.End(root)
	runtime.ReadMemStats(&ms1)
	p.mallocs, p.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	return p, nil
}

func annealOnce(ctx context.Context, in *annealInput, r annealRun, tr *Tracer, root int, st *stageTotals) (annealOutcome, error) {
	opt := oblx.Options{Seed: r.seed, MaxMoves: annealMoves, NoFreeze: true}
	var et *telemetry.EvalTimer
	if tr != nil {
		et = telemetry.NewEvalTimer(1)
		opt.StageTimer = et
	}
	sp := tr.Begin("oblx.Run", "oblx", root)
	t0 := time.Now()
	res, err := oblx.Run(ctx, in.decks[r.deck], opt)
	wall := time.Since(t0)
	tr.End(sp)
	o := annealOutcome{run: r, wall: wall}
	if err != nil {
		return o, nil
	}
	o.res = &runSummary{Moves: res.Moves, EvalCount: res.EvalCount, Accepted: res.Accepted,
		Failed: res.Failures.Total(), Cost: res.Cost.Total, DCSolved: res.DCSolved, MoveStats: res.MoveStats}
	if et != nil {
		rows := et.Breakdown()
		st.add(rows)
		attachStages(tr, sp, rows)
	}
	sp = tr.Begin("verify.Design", "verify", root)
	t1 := time.Now()
	vr, verr := verify.Design(res.Compiled, res.X, res.State.SpecVals)
	o.verify = time.Since(t1)
	tr.End(sp)
	if verr == nil {
		o.relErr = vr.WorstRelErr
	} else {
		o.relErr = math.NaN()
	}
	stats := res.Compiled.Workspace().JigStats()
	for _, s := range stats {
		if s.Sparse {
			o.sparse++
		}
	}
	if len(stats) > 0 {
		o.sparse /= float64(len(stats))
	}
	total := 0
	for _, m := range res.MoveStats {
		total += m.Proposed
		if float64(m.Proposed) > o.topFrac {
			o.top, o.topFrac = m.Name, float64(m.Proposed)
		}
	}
	o.topFrac /= float64(max(total, 1))
	return o, nil
}

// check counts failures: a run error, a non-finite or unsolved final
// design, or a repeat of a (deck, seed) that annealed differently.
func (p *annealPass) check(rep *report) {
	first := map[annealRun]*runSummary{}
	for _, o := range p.outcomes {
		rep.attempted++
		name := bench.Table2Suite[o.run.deck]
		switch {
		case o.res == nil:
			rep.fail("%s seed %d: oblx.Run returned no result", name, o.run.seed)
			continue
		case math.IsNaN(o.res.Cost) || math.IsInf(o.res.Cost, 0):
			rep.fail("%s seed %d: final cost %v", name, o.run.seed, o.res.Cost)
		case !o.res.DCSolved:
			rep.fail("%s seed %d: final design not dc-solved", name, o.run.seed)
		}
		if f, ok := first[o.run]; !ok {
			first[o.run] = o.res
		} else if f.EvalCount != o.res.EvalCount || f.Cost != o.res.Cost {
			rep.fail("%s seed %d: repeat annealed differently (%d evals, cost %v; first %d, %v)",
				name, o.run.seed, o.res.EvalCount, o.res.Cost, f.EvalCount, f.Cost)
		}
	}
}

// perKind returns one outcome per (deck, seed) with the median wall
// time over its repeats.
func (p *annealPass) perKind() []annealOutcome {
	walls := map[annealRun][]float64{}
	var kinds []annealOutcome
	for _, o := range p.outcomes {
		if o.res == nil {
			continue
		}
		if _, ok := walls[o.run]; !ok {
			kinds = append(kinds, o)
		}
		walls[o.run] = append(walls[o.run], o.wall.Seconds())
	}
	for i := range kinds {
		kinds[i].wall = time.Duration(median(walls[kinds[i].run]) * 1e9)
	}
	sort.Slice(kinds, func(a, b int) bool {
		if kinds[a].run.deck != kinds[b].run.deck {
			return kinds[a].run.deck < kinds[b].run.deck
		}
		return kinds[a].run.seed < kinds[b].run.seed
	})
	return kinds
}

func runAnneal(ctx context.Context, cfg config, rep *report) error {
	setupTr := newTracerIf(cfg.trace)
	setup := func() (*annealInput, error) { return setupAnneal(setupTr, cfg.seed) }
	in, setupTimes, err := repeatSetup(5, setup, nil)
	if err != nil {
		return err
	}
	if !cfg.trace {
		// Set-up repeats after every run as well, so its median covers
		// the same stretch of machine time as the runs.
		again := func() error {
			_, times, err := repeatSetup(1, setup, nil)
			setupTimes = append(setupTimes, times...)
			return err
		}
		p, err := passAnneal(ctx, in, cfg.seconds, 0, nil, again)
		if err != nil {
			return err
		}
		p.check(rep)
		rep.set("setup_s", median(setupTimes), "s")
		var moves, evals, wall float64
		kinds := p.perKind()
		for _, k := range kinds {
			moves += float64(k.res.Moves)
			evals += float64(k.res.EvalCount)
			wall += k.wall.Seconds()
			rep.printf("traj %-18s seed %d moves %d evals %5d accepted %5d cost %.6g top %s %.2f degenerate %v wall_ms %.1f",
				bench.Table2Suite[k.run.deck], k.run.seed, k.res.Moves, k.res.EvalCount, k.res.Accepted,
				k.res.Cost, k.top, k.topFrac, k.topFrac >= degenerateShare, k.wall.Seconds()*1e3)
		}
		// The run times are quantiles over the (deck, seed) medians, not
		// over every repeat: the ten kinds' times are far apart, so a
		// quantile over all repeats lands on the slowest or fastest
		// repeat of one kind and moves with the machine's phase.
		ops := make([]float64, 0, len(kinds))
		for _, k := range kinds {
			ops = append(ops, k.wall.Seconds()*1e3)
		}
		rep.set("work_per_s", moves/wall, "1/s")
		rep.set("op_p50_ms", median(ops), "ms")
		rep.set("op_p90_ms", percentile(ops, 90), "ms")
		rep.set("anneal_moves_per_s", moves/wall, "1/s")
		rep.set("anneal_evals_per_s", evals/wall, "1/s")
		rep.set("anneal.runs", float64(len(p.outcomes)), "count")
		return nil
	}

	// Traced run: one untraced cycle, then the same cycle traced.
	plain, err := passAnneal(ctx, in, 0, 1, nil, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	p, err := passAnneal(ctx, in, 0, 1, tr, nil)
	if err != nil {
		return err
	}
	p.check(rep)
	annealLayers(rep, p, plain)
	setTraceMetrics(rep, tr, p.wall, p.wall.Seconds()/plain.wall.Seconds()-1)
	setSetupMetrics(rep, setupTr)
	return tr.WriteJSONL(cfg.traceOut)
}

// annealLayers sets the annealer and eval-stage per-layer metrics.
func annealLayers(rep *report, p, plain *annealPass) {
	var moves, evals, accepted, failed float64
	var runWall float64
	deckWall := make([][]float64, len(deckKeys))
	classes := map[string]float64{}
	var proposed float64
	var costs, relErrs, sparse, verifyMS []float64
	degenerate := 0
	for _, k := range p.perKind() {
		costs = append(costs, k.res.Cost)
		if k.topFrac >= degenerateShare {
			degenerate++
		}
	}
	for _, o := range p.outcomes {
		if o.res == nil {
			continue
		}
		r := o.res
		moves += float64(r.Moves)
		evals += float64(r.EvalCount)
		accepted += float64(r.Accepted)
		failed += float64(r.Failed)
		runWall += o.wall.Seconds()
		deckWall[o.run.deck] = append(deckWall[o.run.deck], o.wall.Seconds())
		for _, m := range r.MoveStats {
			classes[m.Name] += float64(m.Proposed)
			proposed += float64(m.Proposed)
		}
		if !math.IsNaN(o.relErr) {
			relErrs = append(relErrs, o.relErr)
		}
		sparse = append(sparse, o.sparse)
		verifyMS = append(verifyMS, o.verify.Seconds()*1e3)
	}
	for i, k := range deckKeys {
		rep.set("oblx.run_s."+k, mean(deckWall[i]), "s")
	}
	var top float64
	for _, n := range classes {
		top = math.Max(top, n/math.Max(proposed, 1))
	}
	rep.set("anneal.evals_per_move", evals/math.Max(moves, 1), "count")
	rep.set("anneal.accept_frac", accepted/math.Max(moves, 1), "frac")
	rep.set("anneal.top_class_share", top, "frac")
	rep.set("anneal.degenerate_runs", float64(degenerate), "count")
	rep.set("anneal.cost_geomean", geomean(costs), "cost")
	rep.set("oblx.failed_evals_per_eval", failed/math.Max(evals, 1), "count")
	rep.set("oblx.unattributed_frac", 1-p.stages.total()/math.Max(runWall, 1e-9), "frac")
	rep.set("verify.design_ms", mean(verifyMS), "ms")
	rep.set("verify.worst_rel_err_p50", median(relErrs), "frac")
	rep.set("linalg.sparse_frac", mean(sparse), "frac")
	// Allocations come from the untraced pass: spans allocate.
	var plainEvals float64
	for _, o := range plain.outcomes {
		if o.res != nil {
			plainEvals += float64(o.res.EvalCount)
		}
	}
	rep.set("astrx.allocs_per_eval", float64(plain.mallocs)/math.Max(plainEvals, 1), "count")
	rep.set("astrx.bytes_per_eval", float64(plain.bytes)/math.Max(plainEvals, 1), "B")
	p.stages.report(rep)
}

func newTracerIf(on bool) *Tracer {
	if on {
		return newTracer()
	}
	return nil
}

// setTraceMetrics sets the self-time shares of every layer in the traced
// wall time, the share the program's layers account for, and the
// tracing overhead (traced over untraced time, minus 1).
func setTraceMetrics(rep *report, tr *Tracer, traced time.Duration, overhead float64) {
	self := tr.LayerSelf()
	var attributed time.Duration
	for _, l := range layers {
		rep.set("self_frac."+l, self[l].Seconds()/traced.Seconds(), "frac")
		if l != "bench" {
			attributed += self[l]
		}
	}
	rep.set("trace.attributed_frac", attributed.Seconds()/traced.Seconds(), "frac")
	rep.set("trace.overhead_frac", overhead, "frac")
}

// setSetupMetrics sets the parse and compile times recorded during
// set-up.
func setSetupMetrics(rep *report, tr *Tracer) {
	rep.set("netlist.parse_us", mean(durations(tr.Named("netlist.Parse"), time.Microsecond)), "us")
	rep.set("astrx.compile_ms", mean(durations(tr.Named("astrx.Compile"), time.Millisecond)), "ms")
}
