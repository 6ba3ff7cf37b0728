package astrx

import (
	"math"

	"astrx/internal/anneal"
	"astrx/internal/netlist"
)

// Weights holds the scalar weights of eq. (2)/(5): per-spec weights, a
// region-constraint weight, and the relaxed-dc KCL weight. The paper
// replaces hand-tuned constants with an adaptive scheme (§V-A, "Control
// Mechanisms"); Adapt implements a simple version — weights of
// persistently violated constraint groups grow, so no problem-specific
// tuning is ever required from the user.
type Weights struct {
	Spec   map[string]float64
	Region float64
	KCL    float64

	// violation EMAs per group, updated during Cost evaluation.
	emaSpec map[string]float64
	emaReg  float64
	emaKCL  float64
}

const (
	// weightCap bounds adaptive growth: a runaway weight makes the cost
	// landscape a cliff the annealer cannot traverse.
	weightCap   = 300.0
	emaDecay    = 0.999
	adaptFactor = 1.2
	adaptThresh = 1e-2
	// specFailUnits is the normalized-violation equivalent charged for a
	// spec that could not be evaluated at all (≫ 1 = "bad").
	specFailUnits = 10.0
)

func newWeights(deck *netlist.Deck, bias *BiasCkt) *Weights {
	w := &Weights{
		Spec:    make(map[string]float64, len(deck.Specs)),
		Region:  20,
		KCL:     100, // dc-correctness must not be tradable against specs
		emaSpec: make(map[string]float64, len(deck.Specs)),
	}
	for _, s := range deck.Specs {
		if s.Objective {
			w.Spec[s.Name] = 1
		} else {
			w.Spec[s.Name] = 10
		}
	}
	return w
}

// WeightsState is the serializable snapshot of the adaptive-weight
// state. The cost function is stateful (weights and violation EMAs
// evolve during annealing), so checkpoint/restart must capture it for a
// resumed run to reproduce an uninterrupted one exactly.
type WeightsState struct {
	Spec    map[string]float64 `json:"spec"`
	Region  float64            `json:"region"`
	KCL     float64            `json:"kcl"`
	EMASpec map[string]float64 `json:"ema_spec"`
	EMAReg  float64            `json:"ema_reg"`
	EMAKCL  float64            `json:"ema_kcl"`
}

// State snapshots the weights.
func (w *Weights) State() *WeightsState {
	s := &WeightsState{
		Spec:    make(map[string]float64, len(w.Spec)),
		Region:  w.Region,
		KCL:     w.KCL,
		EMASpec: make(map[string]float64, len(w.emaSpec)),
		EMAReg:  w.emaReg,
		EMAKCL:  w.emaKCL,
	}
	for k, v := range w.Spec {
		s.Spec[k] = v
	}
	for k, v := range w.emaSpec {
		s.EMASpec[k] = v
	}
	return s
}

// Restore overwrites the weights with a snapshot.
func (w *Weights) Restore(s *WeightsState) {
	if s == nil {
		return
	}
	for k, v := range s.Spec {
		w.Spec[k] = v
	}
	for k, v := range s.EMASpec {
		w.emaSpec[k] = v
	}
	w.Region, w.KCL = s.Region, s.KCL
	w.emaReg, w.emaKCL = s.EMAReg, s.EMAKCL
}

// Adapt grows the weight of any constraint group whose violation EMA
// remains above threshold. OBLX calls it periodically during annealing.
func (w *Weights) Adapt(deck *netlist.Deck) {
	for _, s := range deck.Specs {
		if s.Objective {
			continue
		}
		if w.emaSpec[s.Name] > adaptThresh && w.Spec[s.Name] < weightCap {
			w.Spec[s.Name] *= adaptFactor
		}
	}
	if w.emaReg > adaptThresh && w.Region < weightCap {
		w.Region *= adaptFactor
	}
	if w.emaKCL > adaptThresh && w.KCL < weightCap {
		w.KCL *= adaptFactor
	}
}

// Normalize maps a measured spec value onto the Nye-style scale: 0 at
// good, 1 at bad, linear in between and beyond.
func Normalize(s *netlist.Spec, v float64) float64 {
	return (s.Good - v) / (s.Good - s.Bad)
}

// CostBreakdown itemizes C(x) per eq. (5).
type CostBreakdown struct {
	Objective float64 // C^obj
	Perf      float64 // C^perf — spec constraint penalties
	Dev       float64 // C^dev — region constraint penalties
	DC        float64 // C^dc — relaxed-dc KCL penalties
	Failed    bool    // evaluation failed; Total = FailCost
	Total     float64
}

// assemble computes C(x) per eq. (5) from the last run of lanes — the
// one assembly of the cost, for a scalar workspace (one lane) and a
// corner batch alike — with the weights of lane 0's compiled problem
// (the nominal). track applies the adaptive-weight EMA updates as a
// side effect.
//
//   - include[l] == false skips lane l entirely (a quarantined corner:
//     the run has degraded to the remaining lanes);
//   - a failed lane 0 fails the whole candidate (FailCost);
//   - per spec, the violation u is the max over participating lanes; a
//     lane that failed to evaluate (evaluated[l] == false) or could not
//     measure the spec contributes the deterministic specFailUnits
//     penalty instead;
//   - the region violation is the max over lanes;
//   - the relaxed-dc KCL violation is the sum over lanes — every lane's
//     own node-voltage section must reach dc-correctness.
//
// A NaN normalized spec value or region violation propagates into the
// total (and so fails the candidate) rather than losing the max.
func assemble(lanes []*EvalWorkspace, include, evaluated []bool, track bool) CostBreakdown {
	var out CostBreakdown
	c := lanes[0].c
	w := c.Weights
	if !include[0] || !evaluated[0] {
		out.Failed = true
		out.Total = c.Opt.FailCost
		return out
	}

	// C^obj and C^perf.
	for i, s := range c.Deck.Specs {
		worst := math.Inf(-1)
		anyVal, anyFail := false, false
		for l, ws := range lanes {
			if !include[l] {
				continue
			}
			val := ws.specVals[i]
			if !evaluated[l] || math.IsNaN(val) || math.IsInf(val, 0) {
				anyFail = true
				continue
			}
			if u := Normalize(s, val); u > worst || math.IsNaN(u) {
				worst = u
			}
			anyVal = true
		}
		if anyFail && (!anyVal || specFailUnits >= worst) {
			// Unevaluatable spec (or a failed binding lane): treat as far
			// beyond "bad".
			out.Perf += w.Spec[s.Name] * specFailUnits
			if track && !s.Objective {
				w.emaSpec[s.Name] = emaDecay*w.emaSpec[s.Name] + (1 - emaDecay)
			}
			continue
		}
		u := worst
		if s.Objective {
			// Keep optimizing past "good", but gently, so objectives
			// cannot drown the penalty terms.
			term := u
			if u < 0 {
				term = 0.05 * u
			}
			out.Objective += w.Spec[s.Name] * term
		} else {
			viol := math.Max(0, u)
			out.Perf += w.Spec[s.Name] * viol
			if track {
				w.emaSpec[s.Name] = emaDecay*w.emaSpec[s.Name] + (1-emaDecay)*math.Min(viol, 1)
			}
		}
	}

	// C^dev (operating-region constraints, volts of violation) and C^dc
	// (the relaxed-dc KCL penalties of eq. (3)).
	regViol, kclViol := 0.0, 0.0
	for l, ws := range lanes {
		if !include[l] || !evaluated[l] {
			continue
		}
		if v := ws.regionViolation(); v > regViol || math.IsNaN(v) {
			regViol = v
		}
		kclViol += ws.kclViolation()
	}
	out.Dev = w.Region * regViol
	out.DC = w.KCL * kclViol
	if track {
		w.emaReg = emaDecay*w.emaReg + (1-emaDecay)*math.Min(regViol, 1)
		w.emaKCL = emaDecay*w.emaKCL + (1-emaDecay)*math.Min(kclViol, 1)
	}

	out.Total = out.Objective + out.Perf + out.Dev + out.DC
	if math.IsNaN(out.Total) || math.IsInf(out.Total, 0) {
		out.Failed = true
		out.Total = c.Opt.FailCost
	}
	return out
}

// Cost evaluates C(x) on the compiled problem's shared workspace — the
// annealer's allocation-free hot path (implements anneal.Problem
// together with Vars).
func (c *Compiled) Cost(x []float64) float64 {
	return c.Workspace().Cost(x)
}

// Vars implements anneal.Problem.
func (c *Compiled) Vars() []anneal.VarSpec { return c.VarList }

// CostDetail evaluates x on the shared workspace and itemizes the cost.
func (c *Compiled) CostDetail(x []float64) CostBreakdown {
	return c.Workspace().CostDetail(x)
}
