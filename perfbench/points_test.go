package main

import (
	"math/rand"
	"testing"

	"astrx/internal/bench"
	"astrx/internal/netlist"
)

// TestGoldenCostsReplayInAnyOrder re-evaluates every committed point in a
// shuffled order on a fresh compile and checks it against its golden
// cost, so the golden check does not depend on evaluation history.
func TestGoldenCostsReplayInAnyOrder(t *testing.T) {
	ps, err := loadPoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Decks) != len(bench.Table2Suite)+1 {
		t.Fatalf("got %d decks, want %d", len(ps.Decks), len(bench.Table2Suite)+1)
	}
	rng := rand.New(rand.NewSource(7))
	for _, dp := range ps.Decks {
		if len(dp.Points) == 0 {
			t.Fatalf("%s: no points", dp.Deck)
		}
		order := rng.Perm(len(dp.Points))
		if dp.Corners {
			deck, err := netlist.Parse(cornerDeckSource())
			if err != nil {
				t.Fatal(err)
			}
			ce, err := newCornerEval(deck)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range order {
				if got := ce.cost(dp.Points[i].X).Total; !goldenOK(got, dp.Points[i].Cost) {
					t.Errorf("%s point %d: cost %.17g, golden %.17g", dp.Deck, i, got, dp.Points[i].Cost)
				}
			}
			continue
		}
		comp, err := bench.Compile(bench.Circuit(dp.Deck))
		if err != nil {
			t.Fatal(err)
		}
		ws := comp.NewWorkspace()
		for _, i := range order {
			if got := ws.Cost(dp.Points[i].X); !goldenOK(got, dp.Points[i].Cost) {
				t.Errorf("%s point %d: cost %.17g, golden %.17g", dp.Deck, i, got, dp.Points[i].Cost)
			}
		}
	}
}
