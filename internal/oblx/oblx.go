// Package oblx implements the OBLX solver: it minimizes an ASTRX-compiled
// cost function with simulated annealing, using the move palette §V-A of
// the paper describes — random single-variable perturbations, combined
// continuous steps, and full/partial Newton-Raphson moves that drive the
// relaxed-dc node voltages toward dc-correctness. Hustin's adaptive
// selection (in package anneal) learns which class pays off as cooling
// proceeds, and the constraint weights adapt so no problem-specific
// constants are needed.
//
// The solver is built for the paper's workflow — "5-10 annealing runs
// performed overnight" — so long runs are first-class citizens: every
// entry point takes a context.Context and returns the best-so-far design
// on cancellation, periodic checkpoints make interrupted runs resumable
// without losing a move, and the evaluation path absorbs evaluator
// panics and non-finite costs as counted move rejections instead of
// crashes (see DESIGN.md, "hardened evaluation contract").
package oblx

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"astrx/internal/anneal"
	"astrx/internal/astrx"
	"astrx/internal/faults"
	"astrx/internal/netlist"
	"astrx/internal/telemetry"
	"astrx/internal/trace"
)

// Options tunes a synthesis run.
type Options struct {
	Seed     int64
	MaxMoves int // annealing move budget (0 → 150_000)

	// NoFreeze disables the freezing criterion so the run consumes its
	// whole move budget — fixed-budget experiments and fault-injection
	// tests want deterministic move counts.
	NoFreeze bool

	// Cost passes through to the compiler.
	Cost astrx.CostOptions

	// Corners selects the operating corners to synthesize against: the
	// run compiles one evaluation plan per corner and anneals on the
	// worst spec value over all of them (plus the nominal). nil means
	// every corner the deck declares — a cornered deck is robust by
	// default; an explicit empty (non-nil) slice forces a nominal-only
	// run. Unknown names are an error.
	Corners []string

	// RecordTrace enables the Fig. 2 instrumentation: every progress
	// event (see Progress) is also kept in Result.Trace.
	RecordTrace bool

	// Progress, when set, receives a ProgressEvent every ProgressEvery
	// moves (0 → 500) — the streaming-telemetry hook the synthesis
	// service uses for its SSE feed. Each event costs one extra circuit
	// evaluation (spec values and the KCL residual are measured at the
	// current point), so the default cadence adds ~0.2% overhead. The
	// callback runs synchronously on the annealing goroutine. Events only
	// observe the run: neither the callback nor its cadence changes the
	// anneal.
	Progress      ProgressFunc
	ProgressEvery int

	// CheckpointPath, when set, makes Run write a resumable state
	// snapshot there every CheckpointEvery moves (atomically: tmp file
	// + rename), and once more at the point of context cancellation.
	CheckpointPath  string
	CheckpointEvery int // moves between checkpoints (0 → 5000)

	// Resume restores a run from a checkpoint previously written via
	// CheckpointPath (load it with LoadCheckpoint). The deck must be the
	// same; Seed and MaxMoves are taken from the checkpoint.
	Resume *Checkpoint

	// Faults, when non-nil, injects evaluator panics, NaN costs, and
	// Newton non-convergence at the injector's configured rates — the
	// test harness for the recovery machinery. Production runs leave it
	// nil (a nil injector is inert).
	Faults *faults.Injector

	// StageTimer, when non-nil, receives sampled per-stage timings of
	// the compiled cost pipeline (stamp → LU → moments → fit → specs).
	// One timer may be shared across RunBest's parallel runs: each run
	// attaches its own clock to each corner lane. A nil timer keeps the
	// hot path uninstrumented.
	StageTimer *telemetry.EvalTimer

	// Trace, when non-nil, receives the run's lifecycle spans: one
	// "anneal" span per Run (with a resume event when restoring from a
	// checkpoint) and one "corner:<name>" span per lane of a worst-case
	// run, with quarantine/retry events as they happen. The recorder is
	// nil-receiver safe, so a nil Trace keeps the hot path at zero
	// allocations — same contract as StageTimer. RunBest's parallel runs
	// may share one recorder (it is concurrency-safe); sampled eval
	// spans then attach to whichever run's anneal span registered last.
	Trace *trace.Recorder
}

func (o *Options) defaults() {
	if o.MaxMoves == 0 {
		o.MaxMoves = 150_000
	}
	if o.ProgressEvery <= 0 {
		o.ProgressEvery = 500
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 5000
	}
}

// ProgressEvent is one streaming telemetry sample of a live run: where
// the annealing is (move count, temperature, acceptance ratio), how good
// the design is so far (cost, best cost, spec values), and how far from
// dc-correctness the relaxed formulation currently sits (KCL error). It
// is the one annealer event above package anneal: the SSE feed, the
// daemon's flight recorder, oblx -trace-out and the Fig. 2 trace
// (Result.Trace) all carry it.
type ProgressEvent struct {
	// Run is the RunBest run index (0 for single runs).
	Run      int   `json:"run"`
	Move     int   `json:"move"`
	MaxMoves int   `json:"max_moves"`
	Evals    int   `json:"evals"`
	Seed     int64 `json:"seed"`

	Temp        float64 `json:"temp"`
	AcceptRatio float64 `json:"accept_ratio"`
	Cost        float64 `json:"cost"`
	BestCost    float64 `json:"best_cost"`
	// MaxKCLError is the worst relative KCL residual at the current
	// point — the paper's Fig. 2 "discrepancy from KCL-correct voltages".
	// It is measured whenever the bias solve succeeds, even if a later
	// stage of the evaluation fails.
	MaxKCLError float64 `json:"max_kcl_error"`
	// SpecVals are the measured spec values at the current point (nil
	// when the point fails to evaluate).
	SpecVals map[string]float64 `json:"spec_vals,omitempty"`

	// The most recent proposal's class and outcome, the Lam controller's
	// target acceptance ratio, and the Hustin selector's per-class
	// quality weights at this point of the run.
	MoveClass string             `json:"move_class,omitempty"`
	Accepted  bool               `json:"accepted,omitempty"`
	DCost     float64            `json:"dcost,omitempty"`
	LamTarget float64            `json:"lam_target,omitempty"`
	Hustin    map[string]float64 `json:"hustin,omitempty"`
	// WorstSpec names the most-violated (or least-satisfied) non-objective
	// spec at the current point, with its violation in normalized "good to
	// bad" units (positive ⇒ failing). Empty when nothing measured.
	WorstSpec  string  `json:"worst_spec,omitempty"`
	WorstSpecU float64 `json:"worst_spec_u,omitempty"`

	// SpanID is the anneal span this event occurred under (empty when
	// tracing is off) — the exemplar link from a flight-recorder record
	// back into the job's span tree.
	SpanID string `json:"span_id,omitempty"`
}

// ProgressFunc receives streaming progress from a running synthesis.
type ProgressFunc func(ProgressEvent)

// finiteSpecVals copies m dropping NaN/±Inf entries. Individual specs
// can legitimately fail to measure mid-anneal (e.g. an unstable reduced
// model rejects its transfer-function specs), and progress events must
// stay JSON-encodable for consumers like the oblxd SSE stream.
func finiteSpecVals(m map[string]float64) map[string]float64 {
	if m == nil {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}

// FailureStats counts the numerical failures a run absorbed. A healthy
// run reports zeros everywhere; fault-injected and near-singular
// problems reports how much trouble the hardened evaluation path ate.
type FailureStats struct {
	// PanicsRecovered counts evaluator panics caught and converted into
	// failed evaluations.
	PanicsRecovered int `json:"panics_recovered"`
	// NonFiniteCosts counts evaluations whose cost came back NaN/±Inf
	// (including injected NaNs).
	NonFiniteCosts int `json:"non_finite_costs"`
	// Retries counts transient-failure retry attempts of the
	// retry-then-quarantine policy.
	Retries int `json:"retries"`
	// Quarantined counts evaluations that still failed after all retries
	// and were surfaced to the annealer as rejections.
	Quarantined int `json:"quarantined"`
	// RejectedMoves counts moves the annealer rejected for a non-finite
	// cost (per move class in Result.MoveStats[].Failed).
	RejectedMoves int `json:"rejected_moves"`
	// Unstable counts transfer-function fits where the AWE Padé reduction
	// produced a model with right-half-plane poles (awe.ErrUnstable). The
	// model is still measured — the RHP pole is frequently a fit artifact
	// rather than real instability — but a run dominated by unstable fits
	// deserves scrutiny, so the count is surfaced here and as the daemon's
	// oblxd_eval_unstable_total metric.
	Unstable int `json:"unstable,omitempty"`
	// Corners itemizes the failures per corner for worst-case runs (nil
	// for nominal-only runs). These are lane-level events the run
	// degraded around, not candidate-level rejections: a corner failure
	// charges that corner the worst-case penalty, and only quarantine
	// removes it from the assembly.
	Corners map[string]CornerFailures `json:"corners,omitempty"`
}

// CornerFailures is one corner's failure ledger.
type CornerFailures struct {
	// Fails counts evaluations that still failed after the in-move retry.
	Fails int `json:"fails"`
	// Retries counts in-move scalar re-attempts after a batched failure.
	Retries int `json:"retries"`
	// Quarantined reports the corner was excluded from the worst-case
	// assembly after cornerQuarantineAfter consecutive failures.
	Quarantined bool `json:"quarantined"`
}

// Total sums all failure events.
func (f FailureStats) Total() int {
	return f.PanicsRecovered + f.NonFiniteCosts + f.Quarantined + f.RejectedMoves
}

// CornerResult is one lane's verdict at the final design of a
// worst-case run: whether its evaluation succeeded, whether its bias
// polished to dc-correctness, its measured spec values, and its failure
// history along the run.
type CornerResult struct {
	Name string `json:"name"`
	// Quarantined reports the corner was dropped from the worst-case
	// assembly (the run is Degraded).
	Quarantined bool `json:"quarantined,omitempty"`
	// Evaluated reports the final evaluation at this corner succeeded;
	// SpecVals and AllMet are meaningful only when it did.
	Evaluated bool `json:"evaluated"`
	DCSolved  bool `json:"dc_solved"`
	// AllMet reports every non-objective spec is satisfied at this
	// corner.
	AllMet   bool               `json:"all_met"`
	Fails    int                `json:"fails,omitempty"`
	Retries  int                `json:"retries,omitempty"`
	SpecVals map[string]float64 `json:"spec_vals,omitempty"`
}

// Result is a completed synthesis run.
type Result struct {
	Compiled *astrx.Compiled
	// DCSolved reports that the final Newton polish converged: the
	// returned design is dc-correct to simulator tolerances. RunBest
	// prefers solved designs over lower-cost unsolved ones.
	DCSolved bool
	X        []float64
	Cost     astrx.CostBreakdown
	State    *astrx.EvalState

	Moves     int
	Accepted  int
	Froze     bool
	Cancelled bool
	Duration  time.Duration
	EvalCount int
	MoveStats []anneal.MoveStat
	// Trace is the Fig. 2 series: every progress event of the run, kept
	// when Options.RecordTrace is set.
	Trace []ProgressEvent
	Seed  int64

	// Degraded reports that at least one corner was quarantined: the
	// returned design is the worst-case optimum over the surviving
	// corners only, and the per-corner breakdown says which dropped out.
	Degraded bool
	// Corners is the final per-lane breakdown of a worst-case run
	// (nominal first; nil for nominal-only runs).
	Corners []CornerResult

	// Failures itemizes the numerical failures absorbed along the run.
	Failures FailureStats
	// CheckpointErr records the last checkpoint-write failure, if any —
	// a checkpoint that cannot be written must not kill the run it
	// exists to protect.
	CheckpointErr error
}

// TimePerEval returns the mean wall time per circuit evaluation — the
// paper's "time/ckt eval" metric. Zero-eval runs (e.g. cancelled at
// birth) report 0 rather than dividing by zero.
func (r *Result) TimePerEval() time.Duration {
	if r.EvalCount == 0 {
		return 0
	}
	return r.Duration / time.Duration(r.EvalCount)
}

// weightAdaptEvery is the move interval between constraint-weight
// adaptations (astrx.Weights.Adapt) during the first quarter of a run.
// It is fixed, not tied to any reporting cadence, so asking for denser
// progress events or a denser Fig. 2 trace anneals the same problem.
const weightAdaptEvery = 500

// evalRetries bounds the retry-then-quarantine policy: a failed
// evaluation (panic or non-finite cost) is retried this many times —
// absorbing transient faults — before the move is quarantined, i.e.
// surfaced to the annealer as an unconditional rejection.
const evalRetries = 2

// problem wraps the worst-case-over-lanes cost function (a nominal run
// is its one-lane case). It counts evaluations and hardens the
// evaluation path: evaluator panics are recovered, NaN/Inf costs
// detected, and both are converted — after bounded retries — into move
// rejections the annealer counts per move class. The contract with the
// annealer: every returned cost is either finite or NaN, and NaN means
// "reject this move" (see anneal.Run).
type problem struct {
	ce *cornerEval

	evals       int
	panics      int
	nanCosts    int
	retries     int
	quarantined int
}

func (p *problem) Vars() []anneal.VarSpec { return p.ce.cs.Vars() }

func (p *problem) Cost(x []float64) float64 {
	p.evals++
	for attempt := 0; ; attempt++ {
		c, panicked := p.tryCost(x)
		switch {
		case panicked:
			p.panics++
		case math.IsNaN(c) || math.IsInf(c, 0):
			p.nanCosts++
		default:
			return c
		}
		if attempt >= evalRetries {
			p.quarantined++
			return math.NaN() // annealer treats NaN as a hard rejection
		}
		p.retries++
	}
}

// tryCost runs one guarded evaluation attempt.
func (p *problem) tryCost(x []float64) (cost float64, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			cost, panicked = math.NaN(), true
		}
	}()
	inj := p.ce.inj
	inj.EvalPanic() // inert when inj is nil
	if inj.NaNCost() {
		return math.NaN(), false
	}
	return p.ce.cost(x), false
}

// Run synthesizes one deck with one seed. Cancelling ctx (SIGINT, a
// deadline) stops the run cleanly and returns the best-so-far design
// with Cancelled set — never an error.
//
// Every run anneals the worst case over a corner set: the nominal plus
// the selected corners. A deck without corners (or an empty selection)
// is the one-lane case, which is exactly the scalar cost C(x).
func Run(ctx context.Context, deck *netlist.Deck, opt Options) (*Result, error) {
	opt.defaults()
	if ctx == nil {
		ctx = context.Background()
	}
	cornerNames, err := astrx.SelectCorners(deck, opt.Corners)
	if err != nil {
		return nil, err
	}
	cs, err := astrx.CompileCorners(deck, cornerNames, opt.Cost)
	if err != nil {
		return nil, err
	}
	c := cs.Nominal
	ce := newCornerEval(cs, opt.Faults)
	p := &problem{ce: ce}
	vars := p.Vars()
	if opt.StageTimer != nil {
		// Each Run compiles its own problem, so the lane workspaces are
		// single-goroutine here; each lane's clock funnels into the
		// (atomic) shared timer.
		for i := 0; i < cs.K(); i++ {
			ce.bw.Lane(i).SetClock(opt.StageTimer.NewClock())
		}
	}

	// The anneal span covers this incarnation of the run. Errors below
	// (bad checkpoint, anneal failure) end it with status "error"; the
	// deferred End is a no-op once the span ended normally.
	asp := opt.Trace.Begin("anneal", "")
	defer asp.End("error")
	opt.Trace.SetEvalParent(asp.ID())
	ce.span = asp

	// The generic perturbation classes explore the scalar prefix only:
	// user variables plus the nominal node section. In a cornered run
	// the corner node sections are relaxation state that tracks each
	// corner's own bias — random kicks there can only add KCL violation
	// (summed over lanes, so an all-variable kick pays K× the scalar
	// uphill and is never accepted), and they dilute the user-variable
	// exploration the anneal actually needs. The Newton moves are the
	// sole writers of the corner sections.
	pvars := vars[:cs.NUser+cs.NFree]
	moves := []anneal.Move{
		anneal.NewRandomStep("random", pvars, 0.3),
		anneal.NewAllStep("all-cont", pvars),
		newtonMove(ctx, ce, "newton-full", 12),
		newtonMove(ctx, ce, "newton-step", 1),
	}
	moveNames := make([]string, len(moves))
	for i, m := range moves {
		moveNames[i] = m.Name()
	}

	var baseDur time.Duration
	if ck := opt.Resume; ck != nil {
		if err := ck.check(len(vars)); err != nil {
			return nil, err
		}
		if err := ce.restore(ck); err != nil {
			return nil, err
		}
		opt.Seed = ck.Seed
		opt.MaxMoves = ck.MaxMoves
		c.Weights.Restore(ck.Weights)
		p.evals = ck.Evals
		p.panics = ck.Panics
		p.nanCosts = ck.NonFinite
		p.retries = ck.Retries
		p.quarantined = ck.Quarantined
		baseDur = time.Duration(ck.ElapsedNS)
		asp.Event("resume",
			"move", strconv.Itoa(ck.Anneal.Move),
			"evals", strconv.Itoa(ck.Evals))
	}
	asp.SetAttr("seed", strconv.FormatInt(opt.Seed, 10))
	asp.SetAttr("max_moves", strconv.Itoa(opt.MaxMoves))

	// Reporting evals (progress events, the final state) run on the
	// reporting batch and never assemble a weight-updating cost, so they
	// cannot perturb the anneal. Progress events measure the nominal
	// lane.
	rws := ce.rbw.Lane(0)
	var nomX []float64
	var trace []ProgressEvent
	// Adaptive weights settle during the first quarter of the run;
	// afterwards the cost function is stationary (the annealer's
	// best-so-far bookkeeping is re-based at the freeze point).
	weightFreeze := opt.MaxMoves / 4
	annealOpt := anneal.Options{
		Seed:     opt.Seed,
		MaxMoves: opt.MaxMoves,
		Adapt: func(mv int) {
			if mv < weightFreeze {
				c.Weights.Adapt(deck)
			}
		},
		AdaptEvery:  weightAdaptEvery,
		BestResetAt: weightFreeze,
	}
	if opt.Progress != nil || opt.RecordTrace {
		// The one place an annealer snapshot becomes a ProgressEvent, for
		// the Progress callback and the Fig. 2 trace alike.
		annealOpt.ProgressEvery = opt.ProgressEvery
		annealOpt.Progress = func(tp anneal.TracePoint) {
			ev := ProgressEvent{
				Move: tp.Move, MaxMoves: opt.MaxMoves, Evals: p.evals,
				Seed: opt.Seed, Temp: tp.Temp, AcceptRatio: tp.AccRate,
				Cost: tp.Cost, BestCost: tp.BestCost,
				MoveClass: tp.MoveClass, Accepted: tp.Accepted,
				DCost: tp.DCost, LamTarget: tp.LamTarget,
				SpanID: asp.ID(),
			}
			if len(tp.Quality) == len(moveNames) {
				ev.Hustin = make(map[string]float64, len(moveNames))
				for i, q := range tp.Quality {
					ev.Hustin[moveNames[i]] = q
				}
			}
			nomX = cs.LaneX(0, tp.X, nomX)
			if rws.Eval(nomX) == nil {
				ev.MaxKCLError = rws.MaxKCLError()
				st := rws.State()
				ev.SpecVals = finiteSpecVals(st.SpecVals)
				ev.WorstSpec, ev.WorstSpecU = worstSpec(c, st)
			} else if rws.EvalBias(nomX) == nil {
				// The failure came after the bias stage: the KCL
				// discrepancy is still measured.
				ev.MaxKCLError = rws.MaxKCLError()
			}
			if opt.RecordTrace {
				trace = append(trace, ev)
			}
			if opt.Progress != nil {
				opt.Progress(ev)
			}
		}
	}
	if opt.NoFreeze {
		annealOpt.FreezeStages = -1
	}
	if opt.Resume != nil {
		annealOpt.Resume = opt.Resume.Anneal
	}

	start := time.Now()
	var ckErr error
	if opt.CheckpointPath != "" {
		annealOpt.CheckpointEvery = opt.CheckpointEvery
		annealOpt.OnCheckpoint = func(ack *anneal.Checkpoint) {
			ck := &Checkpoint{
				Version:     checkpointVersion,
				Seed:        opt.Seed,
				MaxMoves:    opt.MaxMoves,
				Vars:        len(vars),
				Anneal:      ack,
				Weights:     c.Weights.State(),
				Evals:       p.evals,
				Panics:      p.panics,
				NonFinite:   p.nanCosts,
				Retries:     p.retries,
				Quarantined: p.quarantined,
				Unstable:    ce.bw.Lane(0).UnstableCount(),
				Corners:     ce.cornerCheckpoints(),
				ElapsedNS:   int64(baseDur + time.Since(start)),
			}
			if err := SaveCheckpoint(opt.CheckpointPath, ck); err != nil {
				ckErr = err
			}
		}
	}

	res, err := anneal.Run(ctx, p, moves, annealOpt)
	if err != nil {
		return nil, fmt.Errorf("oblx: %w", err)
	}
	dur := baseDur + time.Since(start)

	// Polish: a final full Newton solve from the best point tightens the
	// bias to simulator-grade dc-correctness (the annealer's freezing
	// tolerance is looser than a simulator's). A cancelled run still
	// gets its polish — it is bounded work and the returned design
	// should be the best usable one. The final evaluation then reports
	// the polished design: the result's cost, the nominal state and the
	// per-corner verdicts all come from that one pass.
	best, dcOK, laneDC := polishDC(context.WithoutCancel(ctx), ce, res.Best)
	cost := ce.report(best)
	out := &Result{
		Compiled:  c,
		DCSolved:  dcOK,
		X:         best,
		Cost:      cost,
		State:     rws.State(),
		Moves:     res.Moves,
		Accepted:  res.Accepted,
		Froze:     res.Froze,
		Cancelled: res.Cancelled,
		Duration:  dur,
		EvalCount: p.evals,
		MoveStats: res.MoveStats,
		Trace:     trace,
		Seed:      opt.Seed,
		Failures: FailureStats{
			PanicsRecovered: p.panics,
			NonFiniteCosts:  p.nanCosts,
			Retries:         p.retries,
			Quarantined:     p.quarantined,
			RejectedMoves:   res.NonFinite,
			Unstable:        ce.unstableCount(),
		},
		CheckpointErr: ckErr,
	}
	if cs.K() > 1 {
		out.Failures.Corners = ce.failureStats()
		out.Degraded = ce.degraded()
		out.Corners = ce.cornerResults(laneDC)
	}

	// Per-corner lane spans: lanes run in lockstep with the anneal, so
	// each span covers this incarnation's wall time and carries the
	// lane's verdict; the live quarantine/retry events landed on the
	// anneal span as they happened.
	for _, cr := range out.Corners {
		opt.Trace.AddTimed("corner:"+cr.Name, asp.ID(), start, time.Since(start),
			"evaluated", strconv.FormatBool(cr.Evaluated),
			"dc_solved", strconv.FormatBool(cr.DCSolved),
			"all_met", strconv.FormatBool(cr.AllMet),
			"quarantined", strconv.FormatBool(cr.Quarantined),
			"fails", strconv.Itoa(cr.Fails),
			"retries", strconv.Itoa(cr.Retries))
	}
	asp.SetAttr("moves", strconv.Itoa(res.Moves))
	asp.SetAttr("evals", strconv.Itoa(p.evals))
	if out.Degraded {
		asp.SetAttr("degraded", "true")
	}
	status := "ok"
	if res.Cancelled {
		status = "cancelled"
	}
	asp.End(status)
	return out, nil
}

// worstSpec finds the most-violated (or, for a fully passing design, the
// least-satisfied) finite non-objective spec, in Normalize's good→bad
// units: positive means failing. Specs that failed to measure are
// skipped — SpecVals going missing already signals that.
func worstSpec(c *astrx.Compiled, st *astrx.EvalState) (string, float64) {
	name, worst := "", math.Inf(-1)
	for _, s := range c.Deck.Specs {
		if s.Objective {
			continue
		}
		v, ok := st.SpecVals[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if u := astrx.Normalize(s, v); u > worst {
			name, worst = s.Name, u
		}
	}
	if name == "" {
		return "", 0
	}
	return name, worst
}

// runFn is the seam RunBest uses to launch individual runs; tests
// substitute it to exercise the per-run failure paths deterministically.
var runFn = Run

// reseedOffset separates a retry's random stream from the failed
// attempt's (a large prime, like the per-run 7919 stride).
const reseedOffset = 104729

// RunBest runs n independent seeded anneals (the paper's "5-10 annealing
// runs performed overnight") in parallel goroutines and returns the
// lowest-cost surviving result, every successful per-run result, and a
// per-run error slice (nil entries for successes). A failed run is
// retried once with a reseeded stream after a short backoff; if it fails
// again it is reported in its error slot but no longer discards its
// successful siblings. Only when every run fails is the best result nil.
//
// Cancelling ctx stops all runs; each returns its best-so-far design, so
// a deadline-bounded RunBest still yields n usable candidates.
//
// Checkpointing is a single-run feature: CheckpointPath/Resume are
// ignored here (n parallel runs would race on one file).
func RunBest(ctx context.Context, deck *netlist.Deck, n int, opt Options) (*Result, []*Result, []error) {
	if n <= 0 {
		n = 1
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				// A panic that escapes Run's own recovery (e.g. from
				// Compile) must not kill the sibling runs.
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("oblx: run %d panicked: %v", i, r)
				}
			}()
			o := opt
			o.Seed = opt.Seed + int64(i)*7919
			o.CheckpointPath = ""
			o.Resume = nil
			if opt.Progress != nil {
				// Tag each run's telemetry with its index so a consumer
				// multiplexing the streams can tell them apart.
				run := i
				o.Progress = func(ev ProgressEvent) {
					ev.Run = run
					opt.Progress(ev)
				}
			}
			r, err := runFn(ctx, deck, o)
			if err != nil && ctx.Err() == nil {
				// One reseeded retry with backoff: a different random
				// stream avoids deterministically replaying the failure,
				// and the backoff de-synchronizes retries from whatever
				// transient (fault burst, resource pressure) caused it.
				time.Sleep(time.Duration(20*(i+1)) * time.Millisecond)
				o.Seed += reseedOffset
				if r2, err2 := runFn(ctx, deck, o); err2 == nil {
					r, err = r2, nil
				} else {
					err = fmt.Errorf("oblx: run %d (seed %d) failed: %w (reseeded retry: %v)",
						i, opt.Seed+int64(i)*7919, err, err2)
				}
			}
			results[i], errs[i] = r, err
		}(i)
	}
	wg.Wait()

	var best *Result
	all := make([]*Result, 0, n)
	better := func(a, b *Result) bool { // is a better than b?
		if a.DCSolved != b.DCSolved {
			return a.DCSolved // a dc-correct design beats any cheaper fiction
		}
		return a.Cost.Total < b.Cost.Total
	}
	for i, r := range results {
		if errs[i] != nil || r == nil {
			continue
		}
		all = append(all, r)
		if best == nil || better(r, best) {
			best = r
		}
	}
	return best, all, errs
}
