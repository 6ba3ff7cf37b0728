package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"astrx/internal/astrx"
	"astrx/internal/bench"
	"astrx/internal/netlist"
	"astrx/internal/telemetry"
)

// replayTracedSweeps is the length of each pass of a traced run.
const replayTracedSweeps = 60

// replayRSSSweeps is the sweep at which a timed run reads its peak
// resident memory. The corner batch's memory grows with every corner
// eval (README.md), so a peak read at the end would grow with the
// machine's speed, and a faster commit would read as a memory
// regression; reading it after a fixed amount of work does not.
const replayRSSSweeps = 100

// replaySetupEvery is how many sweeps (about 2 s) a timed run makes
// between two repeats of its set-up.
const replaySetupEvery = 25

// replayItem is one replayed evaluation: a committed point of one deck.
type replayItem struct {
	deck  int // index into replayInput.decks
	point *Point
}

// replayDeck is one deck's evaluator: a scalar workspace, or the K-lane
// corner batch for the corner deck.
type replayDeck struct {
	name   string
	ws     *astrx.EvalWorkspace
	corner *cornerEval
}

type replayInput struct {
	decks []replayDeck
	items []replayItem
}

// setupReplay loads the committed points, parses and compiles their
// decks, orders the items by the workload seed and evaluates every item
// once, so lazy workspace scratch is allocated before timing.
func setupReplay(tr *Tracer, seed int64) (*replayInput, error) {
	ps, err := loadPoints()
	if err != nil {
		return nil, err
	}
	in := &replayInput{}
	for _, dp := range ps.Decks {
		src := cornerDeckSource()
		if !dp.Corners {
			src = bench.DeckSource(bench.Circuit(dp.Deck))
		}
		sp := tr.Begin("netlist.Parse", "netlist", -1)
		deck, err := netlist.Parse(src)
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", dp.Deck, err)
		}
		rd := replayDeck{name: dp.Deck}
		sp = tr.Begin("astrx.Compile", "astrx", -1)
		if dp.Corners {
			rd.corner, err = newCornerEval(deck)
		} else {
			var comp *astrx.Compiled
			comp, err = astrx.Compile(deck, astrx.CostOptions{})
			if err == nil {
				rd.ws = comp.NewWorkspace()
			}
		}
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", dp.Deck, err)
		}
		for i := range dp.Points {
			in.items = append(in.items, replayItem{len(in.decks), &dp.Points[i]})
		}
		in.decks = append(in.decks, rd)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(in.items), func(a, b int) { in.items[a], in.items[b] = in.items[b], in.items[a] })
	for _, it := range in.items {
		in.eval(it)
	}
	return in, nil
}

func (in *replayInput) eval(it replayItem) float64 {
	d := &in.decks[it.deck]
	if d.corner != nil {
		return d.corner.cost(it.point.X).Total
	}
	return d.ws.Cost(it.point.X)
}

// replayPass is one pass of whole sweeps over the items.
type replayPass struct {
	scalar, corner []time.Duration // per-eval times
	wall           time.Duration
	sweeps         int
	mismatches     int
	mallocs, bytes uint64
	rssMB          float64 // peak resident memory at sweep replayRSSSweeps
	// Traced-pass counters.
	jigs, sparseJigs   int
	evalErrs, unstable int
	lanes, batched     int
	stages             *stageTotals
}

// passReplay evaluates whole sweeps: exactly sweeps of them when
// sweeps > 0, else until seconds have passed. plant is a deliberate
// slowdown, as a share of each eval's time, spent spinning inside the
// timed call; only the comparison's self-test sets it. With tr set, every call
// is a span, every eval's stages are timed, and the factorization path,
// errors, unstable fits and batched lanes are counted. between, when
// set, runs after every replaySetupEvery sweeps, outside the timed
// calls.
func passReplay(in *replayInput, seconds float64, sweeps int, tr *Tracer, plant float64, between func() error) (*replayPass, error) {
	p := &replayPass{stages: newStageTotals()}
	if sweeps > 0 {
		// Sized up front so the pass's allocation count is the program's.
		p.scalar = make([]time.Duration, 0, sweeps*len(in.items))
		p.corner = make([]time.Duration, 0, sweeps*len(in.items))
	}
	var timer *telemetry.EvalTimer
	var evalStages [telemetry.NumStages]time.Duration
	if tr != nil {
		timer = telemetry.NewEvalTimer(1)
		timer.OnSample(func(s telemetry.Stage, d time.Duration) { evalStages[s] += d })
		for i := range in.decks {
			if d := &in.decks[i]; d.ws != nil {
				d.ws.SetClock(timer.NewClock())
			}
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := tr.Begin("eval-replay", "bench", -1)
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	for sweeps == 0 && time.Now().Before(deadline) || p.sweeps < sweeps {
		for _, it := range in.items {
			d := &in.decks[it.deck]
			var unst0 int
			if tr != nil && d.ws != nil {
				unst0 = d.ws.UnstableCount()
			}
			name := "Compiled.Cost"
			if d.corner != nil {
				name = "BatchWorkspace.Run"
			}
			sp := tr.Begin(name, "astrx", root)
			e0 := time.Now()
			cost := in.eval(it)
			el := time.Since(e0)
			if plant > 0 {
				spin(time.Duration(plant * float64(el)))
				el = time.Since(e0)
			}
			tr.End(sp)
			for s, d := range evalStages {
				tr.AddVirtual("eval:"+telemetry.Stage(s).String(), stageLayer[telemetry.Stage(s).String()], sp, d)
				evalStages[s] = 0
			}
			if !goldenOK(cost, it.point.Cost) {
				p.mismatches++
			}
			if d.corner != nil {
				p.corner = append(p.corner, el)
			} else {
				p.scalar = append(p.scalar, el)
			}
			if tr != nil {
				p.count(d, unst0)
			}
		}
		p.sweeps++
		if p.sweeps == replayRSSSweeps {
			p.rssMB = peakRSSMB()
		}
		if between != nil && p.sweeps%replaySetupEvery == 0 {
			if err := between(); err != nil {
				return nil, err
			}
		}
	}
	p.wall = time.Since(t0)
	tr.End(root)
	runtime.ReadMemStats(&ms1)
	p.mallocs, p.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	if tr != nil {
		p.stages.add(timer.Breakdown())
		for i := range in.decks {
			if d := &in.decks[i]; d.ws != nil {
				d.ws.SetClock(nil)
			}
		}
	}
	return p, nil
}

// count records the traced-pass counters of the eval just made.
func (p *replayPass) count(d *replayDeck, unst0 int) {
	if d.corner != nil {
		bw := d.corner.bw
		for j := 0; j < bw.Jigs(); j++ {
			for l := 0; l < bw.K(); l++ {
				p.lanes++
				if bw.Batched(j, l) {
					p.batched++
				}
			}
		}
		return
	}
	for _, s := range d.ws.JigStats() {
		p.jigs++
		if s.Sparse {
			p.sparseJigs++
		}
	}
	if d.ws.Err() != nil {
		p.evalErrs++
	}
	p.unstable += d.ws.UnstableCount() - unst0
}

func (p *replayPass) check(rep *report) {
	rep.attempted += len(p.scalar) + len(p.corner)
	for i := 0; i < p.mismatches; i++ {
		rep.fail("replayed cost differs from its golden value by more than %g relative", goldenRelTol)
	}
}

func runReplay(ctx context.Context, cfg config, rep *report) error {
	setupTr := newTracerIf(cfg.trace)
	setup := func() (*replayInput, error) { return setupReplay(setupTr, cfg.seed) }
	in, setupTimes, err := repeatSetup(5, setup, nil)
	if err != nil {
		return err
	}
	if !cfg.trace {
		// Set-up repeats during the run as well, so its median covers
		// the same stretch of machine time as the evals.
		again := func() error {
			_, times, err := repeatSetup(1, setup, nil)
			setupTimes = append(setupTimes, times...)
			return err
		}
		p, err := passReplay(in, cfg.seconds, 0, nil, 0, again)
		if err != nil {
			return err
		}
		p.check(rep)
		replayEndToEnd(rep, p, median(setupTimes))
		return nil
	}
	// Every traced eval keeps a span and up to seven stage spans, so the
	// traced pass is a fixed number of sweeps rather than a time.
	plain, err := passReplay(in, 0, replayTracedSweeps, nil, 0, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	p, err := passReplay(in, 0, replayTracedSweeps, tr, 0, nil)
	if err != nil {
		return err
	}
	p.check(rep)
	nEvals := float64(len(plain.scalar) + len(plain.corner))
	rep.set("astrx.allocs_per_eval", float64(plain.mallocs)/nEvals, "count")
	rep.set("astrx.bytes_per_eval", float64(plain.bytes)/nEvals, "B")
	rep.set("linalg.sparse_frac", float64(p.sparseJigs)/float64(max(p.jigs, 1)), "frac")
	rep.set("astrx.eval_err_frac", float64(p.evalErrs)/float64(max(len(p.scalar), 1)), "frac")
	rep.set("awe.unstable_per_eval", float64(p.unstable)/float64(max(len(p.scalar), 1)), "count")
	rep.set("astrx.batch_lane_frac", float64(p.batched)/float64(max(p.lanes, 1)), "frac")
	p.stages.report(rep)
	setTraceMetrics(rep, tr, p.wall, p.wall.Seconds()/plain.wall.Seconds()-1)
	setSetupMetrics(rep, setupTr)
	return tr.WriteJSONL(cfg.traceOut)
}

// replayEndToEnd sets the timed-pass metrics: evals per second over
// both kinds of eval, per-eval latency, and each kind's own rate.
func replayEndToEnd(rep *report, p *replayPass, setupSeconds float64) {
	var sum, sumScalar, sumCorner time.Duration
	ops := make([]float64, 0, len(p.scalar)+len(p.corner))
	for _, d := range p.scalar {
		sumScalar += d
		ops = append(ops, float64(d)/1e6)
	}
	for _, d := range p.corner {
		sumCorner += d
		ops = append(ops, float64(d)/1e6)
	}
	sum = sumScalar + sumCorner
	rep.set("setup_s", setupSeconds, "s")
	if p.rssMB > 0 {
		rep.set("rss_mb", p.rssMB, "MB")
	}
	rep.set("work_per_s", float64(len(ops))/sum.Seconds(), "1/s")
	rep.set("op_p50_ms", median(ops), "ms")
	rep.set("op_p90_ms", percentile(ops, 90), "ms")
	rep.set("eval_per_s", float64(len(p.scalar))/sumScalar.Seconds(), "1/s")
	rep.set("corner_eval_per_s", float64(len(p.corner))/sumCorner.Seconds(), "1/s")
	rep.set("eval.samples", float64(len(ops)), "count")
	rep.set("eval.tail_pct", tailPercentile(len(ops)), "pct")
	rep.set("eval.tail_ms", percentile(ops, tailPercentile(len(ops))), "ms")
}
