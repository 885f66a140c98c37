// Package insight turns the sketch's occupancy/promotion/saturation
// series into a live accuracy self-report: what the current register
// state implies about answer quality, per collection window.
//
// Everything here is computed from quantities the paper's analysis (§5,
// Appendix B) prices:
//
//   - Count-error bounds. Theorem 5.1 bounds any flow's overestimate by
//     ε·|x|₁ + ε·(D−1)·(|x|₁ − w1·θ1)·𝟙{|x|₁ > w1·θ1} with ε = e/w1.
//     The report evaluates it online, plus a per-stage split: stage l
//     prices ε_l = e/w_l against the count mass that reached stage l.
//   - Linear-counting validity. The cardinality estimate −w1·ln(V) is
//     only trustworthy while empty leaves remain; the report carries the
//     LC relative standard error √(e^α − α − 1)/(α·√w1) and flags the
//     estimate invalid once it crosses a threshold (or V hits zero).
//   - Time-to-saturation forecast. The root stage clamps silently; the
//     report extrapolates the max root counter's growth rate over the
//     recent observation history into "windows until saturation", so
//     operators get warned while there is still headroom.
//   - Geometry recommendation. Per stage: grow under collision pressure
//     or imminent saturation, shrink when nearly idle — the sensor half
//     of an auto-tuner control loop.
//
// The package is deliberately split from core: core counts registers
// (Census, behind Observe), insight interprets series of those counts
// (Analyzer). The Analyzer never touches a sketch, so aggregators can run
// it on remote-collected snapshots.
package insight

import (
	"math"
	"sync"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
)

// Geometry is the sketch shape an analysis is anchored to. Observations
// against a different geometry reset the analyzer's history (a rotation
// or re-provisioning invalidates trend extrapolation).
type Geometry struct {
	K          int      `json:"k"`
	Trees      int      `json:"trees"`
	Depth      int      `json:"depth"`
	LeafWidth  int      `json:"leaf_width"`
	StageNodes []int    `json:"stage_nodes"` // per-tree node counts, leaves first
	StageCaps  []uint64 `json:"stage_caps"`  // counting capacities θ_l
}

// GeometryOf captures a sketch's shape.
func GeometryOf(sk *core.Sketch) Geometry {
	g := Geometry{
		K:         sk.K(),
		Trees:     sk.NumTrees(),
		Depth:     sk.Depth(),
		LeafWidth: sk.LeafWidth(),
	}
	n := sk.LeafWidth()
	for l := 0; l < sk.Depth(); l++ {
		g.StageNodes = append(g.StageNodes, n)
		g.StageCaps = append(g.StageCaps, sk.StageMax(l))
		n /= sk.K()
	}
	return g
}

func (g Geometry) equal(o Geometry) bool {
	if g.K != o.K || g.Trees != o.Trees || g.Depth != o.Depth || g.LeafWidth != o.LeafWidth {
		return false
	}
	for l := range g.StageNodes {
		if g.StageNodes[l] != o.StageNodes[l] || g.StageCaps[l] != o.StageCaps[l] {
			return false
		}
	}
	return true
}

// Counts carries the cumulative hot-path counters (core.Stats) when the
// observer has them. All-zero is fine: snapshot-only observers (the
// collection plane) fall back to register-derived signals.
type Counts struct {
	Updates     uint64   `json:"updates"`
	Promotions  []uint64 `json:"promotions,omitempty"` // per boundary l→l+1, len depth−1
	Saturations uint64   `json:"saturations"`
}

// Observation is one register scan: everything the analyzer needs,
// decoupled from *core.Sketch so remote snapshots feed the same math.
type Observation struct {
	At     time.Time `json:"at"`
	Window uint64    `json:"window"` // monotonic; 0 lets the analyzer assign the next seq

	Geometry   Geometry  `json:"geometry"`
	Norm1      float64   `json:"norm1"`      // |x|₁ ≈ packets, averaged over trees
	Occupancy  []float64 `json:"occupancy"`  // per stage, fraction non-zero
	Overflowed []int     `json:"overflowed"` // per stage, nodes at the overflow marker (summed over trees)
	StageLoad  []uint64  `json:"stage_load"` // per stage, count mass (summed over trees)
	MaxRoot    uint64    `json:"max_root"`   // largest root register across trees

	Cardinality   float64 `json:"cardinality"`
	EmptyFraction float64 `json:"empty_fraction"` // V: empty stage-1 fraction

	Counts Counts `json:"counts"`

	// ExactMaxDegree, when > 0, is core.Sketch.MaxDegree() (a full
	// virtual-counter walk). Zero means unknown; the analyzer uses the
	// cheap upper bound k^L with L the deepest stage holding any mass.
	ExactMaxDegree int `json:"exact_max_degree,omitempty"`
}

// Observe scans a sketch into an Observation: one register census plus
// the linear-counting estimate — scrape-time or per-window only. Attached
// core.Stats are carried along; exact max degree is not computed (set
// ExactMaxDegree yourself if you can afford the virtual-counter walk).
func Observe(sk *core.Sketch) Observation {
	geo := GeometryOf(sk)
	obs := Observation{
		At:          time.Now(),
		Geometry:    geo,
		Occupancy:   make([]float64, geo.Depth),
		Overflowed:  make([]int, geo.Depth),
		StageLoad:   make([]uint64, geo.Depth),
		Cardinality: sk.Cardinality(),
	}
	norm1, empty := uint64(0), 0
	for _, stages := range sk.Census() {
		for l, c := range stages {
			obs.Occupancy[l] += float64(c.Nonzero) / float64(geo.StageNodes[l])
			obs.Overflowed[l] += c.Overflowed
			obs.StageLoad[l] += c.Load
			norm1 += c.Load
		}
		empty += geo.LeafWidth - stages[0].Nonzero
		obs.MaxRoot = max(obs.MaxRoot, stages[geo.Depth-1].Max)
	}
	trees := float64(geo.Trees)
	for l := range obs.Occupancy {
		obs.Occupancy[l] /= trees
	}
	obs.Norm1 = float64(norm1) / trees
	obs.EmptyFraction = float64(empty) / trees / float64(geo.LeafWidth)
	if st := sk.Stats(); st != nil {
		obs.Counts.Updates = st.Updates.Load()
		obs.Counts.Saturations = st.Saturations.Load()
		for l := range st.Promotions {
			obs.Counts.Promotions = append(obs.Counts.Promotions, st.Promotions[l].Load())
		}
	}
	return obs
}

// Recommendation values for StageReport.Recommendation.
const (
	RecGrow   = "grow"
	RecOK     = "ok"
	RecShrink = "shrink"
)

// StageReport is one stage's slice of the self-report.
type StageReport struct {
	Level           int     `json:"level"` // 0 = leaves
	Nodes           int     `json:"nodes"` // per tree
	CapacityPerNode uint64  `json:"capacity_per_node"`
	Occupancy       float64 `json:"occupancy"`
	Overflowed      int     `json:"overflowed"`
	LoadPerTree     float64 `json:"load_per_tree"`
	// ErrorBound is this stage's collision-error price in packets:
	// ε_l·(mass at or above stage l), ε_l = e/w_l. The level-0 entry is
	// Theorem 5.1's first term ε·|x|₁.
	ErrorBound float64 `json:"error_bound"`
	// PromotionRate is newly overflowed nodes per window at this stage
	// (from Counts.Promotions when available, else Overflowed deltas).
	// Zero until two observations exist.
	PromotionRate  float64 `json:"promotion_rate"`
	Recommendation string  `json:"recommendation"`
}

// Report is the per-window accuracy self-report.
type Report struct {
	At       time.Time `json:"at"`
	Window   uint64    `json:"window"`
	Geometry Geometry  `json:"geometry"`

	Norm1   float64 `json:"norm1"`
	Epsilon float64 `json:"epsilon"` // e/w1

	// MaxDegree is the D of Theorem 5.1 — exact when the observation
	// carried one, else the structural upper bound k^(deepest loaded
	// stage); MaxDegreeExact says which.
	MaxDegree      int  `json:"max_degree"`
	MaxDegreeExact bool `json:"max_degree_exact"`

	// ErrorBound is Theorem 5.1 evaluated at this window: any single
	// flow's count overestimate is at most this many packets (one-sided;
	// undercounting only once Saturated). RelativeErrorBound divides by
	// |x|₁.
	ErrorBound         float64 `json:"error_bound"`
	RelativeErrorBound float64 `json:"relative_error_bound"`

	CardinalityEstimate  float64 `json:"cardinality_estimate"`
	CardinalityValid     bool    `json:"cardinality_valid"`
	CardinalityRelStdErr float64 `json:"cardinality_rel_std_err"` // -1 once V = 0

	RootMax      uint64  `json:"root_max"`
	RootCapacity uint64  `json:"root_capacity"`
	RootHeadroom float64 `json:"root_headroom"` // 1 − RootMax/RootCapacity
	Saturated    bool    `json:"saturated"`
	// ForecastWindows extrapolates the root max counter's growth over
	// the observation history: windows until the first root register
	// clamps. 0 when already saturated; -1 when there is no growth trend
	// (or fewer than two observations).
	ForecastWindows float64 `json:"saturation_forecast_windows"`

	Stages []StageReport `json:"stages"`
}

// Stage returns stage l's report, or the zero StageReport when the report
// has no such stage (a zero Report has none).
func (r Report) Stage(l int) StageReport {
	if l < len(r.Stages) {
		return r.Stages[l]
	}
	return StageReport{}
}

// The analyzer's thresholds.
const (
	// historyLen is how many observations the trend window holds.
	historyLen = 8
	// cardinalityRelStdErrMax invalidates the LC estimate above this
	// relative standard error.
	cardinalityRelStdErrMax = 0.05
	// growOccupancy recommends growing a stage at or above this
	// occupancy (collision pressure).
	growOccupancy = 0.85
	// shrinkOccupancy recommends shrinking a stage at or below this
	// occupancy, provided nothing is promoting into it.
	shrinkOccupancy = 0.10
	// forecastHorizon recommends growing the root once the saturation
	// forecast is within this many windows.
	forecastHorizon = 3
)

// Analyzer folds a series of observations into reports. Safe for
// concurrent use; one Analyzer watches one sketch (or one merged region).
type Analyzer struct {
	mu       sync.Mutex
	geo      Geometry
	haveGeo  bool
	hist     []Observation // oldest first, ≤ historyLen
	seq      uint64
	last     Report
	haveLast bool
}

// NewAnalyzer builds an analyzer with an empty history.
func NewAnalyzer() *Analyzer { return &Analyzer{} }

// ObserveSketch scans sk and folds the observation in — the one-call
// path for callers that hold the sketch.
func (a *Analyzer) ObserveSketch(sk *core.Sketch) Report {
	return a.Note(Observe(sk))
}

// Note folds one observation into the history and returns the updated
// report. A geometry change resets the trend history.
func (a *Analyzer) Note(obs Observation) Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.haveGeo || !a.geo.equal(obs.Geometry) {
		a.geo = obs.Geometry
		a.haveGeo = true
		a.hist = a.hist[:0]
	}
	if obs.Window == 0 {
		a.seq++
		obs.Window = a.seq
	} else if obs.Window > a.seq {
		a.seq = obs.Window
	}
	if obs.At.IsZero() {
		obs.At = time.Now()
	}
	a.hist = append(a.hist, obs)
	if len(a.hist) > historyLen {
		a.hist = a.hist[len(a.hist)-historyLen:]
	}
	a.last = a.analyzeLocked()
	a.haveLast = true
	return a.last
}

// Last returns the most recent report, if any observation was folded.
func (a *Analyzer) Last() (Report, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.last, a.haveLast
}

func (a *Analyzer) analyzeLocked() Report {
	cur := a.hist[len(a.hist)-1]
	geo := cur.Geometry
	w1 := float64(geo.LeafWidth)
	eps := math.E / w1

	rep := Report{
		At:                  cur.At,
		Window:              cur.Window,
		Geometry:            geo,
		Norm1:               cur.Norm1,
		Epsilon:             eps,
		CardinalityEstimate: cur.Cardinality,
		RootMax:             cur.MaxRoot,
		RootCapacity:        geo.StageCaps[geo.Depth-1],
	}

	// Max degree: exact when offered, else the structural bound k^L for
	// the deepest stage holding any count mass (promotions can only fan
	// a virtual counter out by k per escalated stage).
	if cur.ExactMaxDegree > 0 {
		rep.MaxDegree, rep.MaxDegreeExact = cur.ExactMaxDegree, true
	} else {
		deepest := 0
		for l := 1; l < geo.Depth; l++ {
			if l < len(cur.StageLoad) && cur.StageLoad[l] > 0 {
				deepest = l
			}
		}
		d := 1
		for l := 0; l < deepest; l++ {
			d *= geo.K
		}
		rep.MaxDegree = d
	}

	// Theorem 5.1: err ≤ ε·|x|₁ + ε·(D−1)·(|x|₁ − w1·θ1)·𝟙{|x|₁ > w1·θ1}.
	rep.ErrorBound = eps * cur.Norm1
	if leafCap := w1 * float64(geo.StageCaps[0]); cur.Norm1 > leafCap {
		rep.ErrorBound += eps * float64(rep.MaxDegree-1) * (cur.Norm1 - leafCap)
	}
	if cur.Norm1 > 0 {
		rep.RelativeErrorBound = rep.ErrorBound / cur.Norm1
	}

	// Linear-counting validity: rel-std-err ≈ √(e^α − α − 1)/(α·√w1)
	// with load factor α = n̂/w1. Dead once V = 0 (α unbounded).
	switch {
	case cur.EmptyFraction <= 0:
		rep.CardinalityRelStdErr = -1
	case cur.Cardinality <= 0:
		rep.CardinalityValid = true // empty sketch: the estimate (0) is exact
	default:
		alpha := cur.Cardinality / w1
		rep.CardinalityRelStdErr = math.Sqrt(math.Exp(alpha)-alpha-1) / (alpha * math.Sqrt(w1))
		rep.CardinalityValid = rep.CardinalityRelStdErr <= cardinalityRelStdErrMax
	}

	// Saturation: current state + forecast by linear extrapolation of
	// the max root counter across the history window.
	rootLevel := geo.Depth - 1
	rep.Saturated = cur.Counts.Saturations > 0 ||
		(rootLevel < len(cur.Overflowed) && cur.Overflowed[rootLevel] > 0) ||
		cur.MaxRoot >= rep.RootCapacity
	if rep.RootCapacity > 0 {
		rep.RootHeadroom = 1 - float64(cur.MaxRoot)/float64(rep.RootCapacity)
	}
	rep.ForecastWindows = -1
	if rep.Saturated {
		rep.ForecastWindows = 0
	} else if len(a.hist) >= 2 {
		first := a.hist[0]
		dw := float64(cur.Window) - float64(first.Window)
		if dw > 0 {
			rate := (float64(cur.MaxRoot) - float64(first.MaxRoot)) / dw
			if rate > 0 {
				rep.ForecastWindows = (float64(rep.RootCapacity) - float64(cur.MaxRoot)) / rate
			}
		}
	}

	rep.Stages = a.stageReportsLocked(cur, rep)
	return rep
}

func (a *Analyzer) stageReportsLocked(cur Observation, rep Report) []StageReport {
	geo := cur.Geometry
	trees := float64(geo.Trees)
	out := make([]StageReport, geo.Depth)

	// Promotion rates over the history window: prefer the hot-path
	// counters (events), fall back to overflowed-node deltas (first
	// overflow per node only — an undercount, but snapshot-derivable).
	promRate := make([]float64, geo.Depth)
	if len(a.hist) >= 2 {
		first := a.hist[0]
		if dw := float64(cur.Window) - float64(first.Window); dw > 0 {
			for l := 0; l < geo.Depth-1; l++ {
				if l < len(cur.Counts.Promotions) && l < len(first.Counts.Promotions) &&
					cur.Counts.Promotions[l] > 0 {
					promRate[l] = (float64(cur.Counts.Promotions[l]) - float64(first.Counts.Promotions[l])) / dw
				} else if l < len(cur.Overflowed) && l < len(first.Overflowed) {
					promRate[l] = (float64(cur.Overflowed[l]) - float64(first.Overflowed[l])) / dw
				}
			}
		}
	}

	for l := 0; l < geo.Depth; l++ {
		sr := StageReport{
			Level:           l,
			Nodes:           geo.StageNodes[l],
			CapacityPerNode: geo.StageCaps[l],
			PromotionRate:   promRate[l],
		}
		if l < len(cur.Occupancy) {
			sr.Occupancy = cur.Occupancy[l]
		}
		if l < len(cur.Overflowed) {
			sr.Overflowed = cur.Overflowed[l]
		}
		// Mass at or above stage l prices this stage's collisions.
		above := uint64(0)
		for j := l; j < len(cur.StageLoad); j++ {
			above += cur.StageLoad[j]
		}
		if l < len(cur.StageLoad) {
			sr.LoadPerTree = float64(cur.StageLoad[l]) / trees
		}
		sr.ErrorBound = (math.E / float64(geo.StageNodes[l])) * (float64(above) / trees)

		// Recommendation: grow under collision pressure (or, at the
		// root, imminent saturation); shrink when nearly idle and
		// nothing is promoting into the stage.
		promotingIn := l > 0 && promRate[l-1] > 0
		switch {
		case l == geo.Depth-1 && (rep.Saturated ||
			(rep.ForecastWindows >= 0 && rep.ForecastWindows <= forecastHorizon)):
			sr.Recommendation = RecGrow
		case sr.Occupancy >= growOccupancy:
			sr.Recommendation = RecGrow
		case sr.Occupancy <= shrinkOccupancy && !promotingIn:
			sr.Recommendation = RecShrink
		default:
			sr.Recommendation = RecOK
		}
		out[l] = sr
	}
	return out
}
