package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"astrx/internal/astrx"
	"astrx/internal/bench"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
)

// cornerDeckName labels the 3-lane Simple OTA corner deck (nominal plus
// the slow and fast corners of BenchmarkTable2EvalCorners).
const cornerDeckName = "Simple OTA corners"

var cornerNames = []string{"slow", "fast"}

// cornerDeckSource is the Simple OTA deck with two process corners, the
// deck BenchmarkTable2EvalCorners evaluates.
func cornerDeckSource() string {
	return bench.DeckSource(bench.SimpleOTA) +
		"\n.corner slow temp=85 nmos3.vto=0.95 vdd=2.4\n.corner fast temp=-40 vdd=2.6\n"
}

// The committed points: the current point of seeded anneals of
// pointMoves moves, every pointEvery moves.
const (
	pointMoves = 4000
	pointEvery = 250
)

var pointSeeds = []int64{1, 2}

// goldenRelTol is the relative tolerance a replayed cost may differ from
// its committed golden value by. The cost is a pure function of the
// point under the compile-time weights, but the factorization path
// (sparse replay or dense fallback) depends on what the workspace saw
// before, which perturbs the last bits.
const goldenRelTol = 1e-6

// Point is one committed anneal point with its golden cost.
type Point struct {
	Seed int64     `json:"seed"`
	Move int       `json:"move"`
	X    []float64 `json:"x"`
	Cost float64   `json:"cost"`
}

// DeckPoints holds the captured points of one deck.
type DeckPoints struct {
	Deck    string  `json:"deck"`
	Corners bool    `json:"corners,omitempty"`
	Points  []Point `json:"points"`
}

// PointSet is the committed trajectory file (testdata/points.json).
type PointSet struct {
	Moves int          `json:"moves"`
	Every int          `json:"every"`
	Seeds []int64      `json:"seeds"`
	Decks []DeckPoints `json:"decks"`
}

//go:embed testdata/points.json
var pointsJSON []byte

func loadPoints() (*PointSet, error) {
	var ps PointSet
	if err := json.Unmarshal(pointsJSON, &ps); err != nil {
		return nil, fmt.Errorf("decode points: %w", err)
	}
	return &ps, nil
}

// goldenOK reports whether a replayed cost matches its golden value.
func goldenOK(got, want float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return false
	}
	return math.Abs(got-want) <= goldenRelTol*math.Max(1, math.Abs(want))
}

// captureTrajectory anneals deck with a fixed move budget and returns
// the annealer's current point every `every` moves. It uses public hooks
// only: the run writes a checkpoint every `every` moves, and the
// progress callback at the same cadence fires after that checkpoint is
// on disk, so it reads the checkpoint's current point.
func captureTrajectory(deck *netlist.Deck, seed int64, moves, every int, dir string) ([]Point, error) {
	ckpt := filepath.Join(dir, fmt.Sprintf("capture-%d.ckpt", seed))
	defer os.Remove(ckpt)
	var pts []Point
	var capErr error
	_, err := oblx.Run(context.Background(), deck, oblx.Options{
		Seed: seed, MaxMoves: moves, NoFreeze: true,
		CheckpointPath: ckpt, CheckpointEvery: every,
		ProgressEvery: every,
		Progress: func(ev oblx.ProgressEvent) {
			if capErr != nil || ev.Move == 0 || ev.Move%every != 0 {
				return
			}
			ck, err := oblx.LoadCheckpoint(ckpt)
			if err != nil {
				capErr = err
				return
			}
			if ck.Anneal.Move != ev.Move {
				capErr = fmt.Errorf("checkpoint at move %d, progress at %d", ck.Anneal.Move, ev.Move)
				return
			}
			pts = append(pts, Point{Seed: seed, Move: ev.Move, X: append([]float64(nil), ck.Anneal.Cur...)})
		},
	})
	if err == nil {
		err = capErr
	}
	return pts, err
}

// genPoints captures trajectories for the five Table 2 decks and the
// corner deck, computes each point's golden cost on a fresh compile, and
// writes the set to out.
func genPoints(out string) error {
	ps := &PointSet{Moves: pointMoves, Every: pointEvery, Seeds: pointSeeds}
	dir, err := os.MkdirTemp(filepath.Dir(out), "capture-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, c := range bench.Table2Suite {
		deck, err := bench.Parse(c)
		if err != nil {
			return err
		}
		dp := DeckPoints{Deck: string(c)}
		for _, seed := range pointSeeds {
			pts, err := captureTrajectory(deck, seed, pointMoves, pointEvery, dir)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", c, seed, err)
			}
			dp.Points = append(dp.Points, pts...)
		}
		comp, err := astrx.Compile(deck, astrx.CostOptions{})
		if err != nil {
			return err
		}
		ws := comp.NewWorkspace()
		for i := range dp.Points {
			dp.Points[i].Cost = ws.Cost(dp.Points[i].X)
		}
		ps.Decks = append(ps.Decks, dp)
	}
	deck, err := netlist.Parse(cornerDeckSource())
	if err != nil {
		return err
	}
	dp := DeckPoints{Deck: cornerDeckName, Corners: true}
	for _, seed := range pointSeeds {
		pts, err := captureTrajectory(deck, seed, pointMoves, pointEvery, dir)
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", cornerDeckName, seed, err)
		}
		dp.Points = append(dp.Points, pts...)
	}
	ce, err := newCornerEval(deck)
	if err != nil {
		return err
	}
	for i := range dp.Points {
		dp.Points[i].Cost = ce.cost(dp.Points[i].X).Total
	}
	ps.Decks = append(ps.Decks, dp)

	data, err := json.Marshal(ps)
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// cornerEval evaluates worst-case candidates of a cornered deck through
// the K-lane batch workspace, as the annealer's worst-case path does.
type cornerEval struct {
	cs        *astrx.CornerSet
	bw        *astrx.BatchWorkspace
	xs        [][]float64
	include   []bool
	evaluated []bool
}

func newCornerEval(deck *netlist.Deck) (*cornerEval, error) {
	cs, err := astrx.CompileCorners(deck, cornerNames, astrx.CostOptions{})
	if err != nil {
		return nil, err
	}
	k := cs.K()
	ce := &cornerEval{cs: cs, bw: cs.NewCornerBatch(), xs: make([][]float64, k),
		include: make([]bool, k), evaluated: make([]bool, k)}
	for i := range ce.include {
		ce.include[i] = true
	}
	return ce, nil
}

// cost evaluates one master vector over every lane and assembles the
// worst case.
func (ce *cornerEval) cost(x []float64) astrx.CostBreakdown {
	for i := range ce.xs {
		ce.xs[i] = ce.cs.LaneX(i, x, ce.xs[i])
	}
	ce.bw.Run(ce.xs)
	for j := range ce.evaluated {
		ce.evaluated[j] = ce.bw.Lane(j).Err() == nil
	}
	return ce.cs.WorstCase(ce.bw, ce.include, ce.evaluated)
}
