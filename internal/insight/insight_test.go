package insight

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/telemetry"
)

// tiny builds a sketch small enough to drive through its whole lifecycle
// (w1=64 leaves, caps 254/65534/2^32-2 with the default widths).
func tiny(t *testing.T) *core.Sketch {
	t.Helper()
	sk, err := core.New(core.Config{K: 8, Trees: 2, LeafWidth: 64})
	if err != nil {
		t.Fatal(err)
	}
	sk.SetStats(core.NewStats(sk.Depth()))
	return sk
}

func key(i uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], i)
	return b[:]
}

// TestObserveMatchesSketch pins the observation against the sketch's own
// accessors on a small deterministic load.
func TestObserveMatchesSketch(t *testing.T) {
	sk := tiny(t)
	for i := uint64(0); i < 40; i++ {
		sk.Update(key(i), 3)
	}
	obs := Observe(sk)
	if got, want := obs.Geometry, GeometryOf(sk); !got.equal(want) {
		t.Fatalf("geometry %+v, want %+v", got, want)
	}
	// 40 flows × 3 packets, no stage can have promoted at value 3.
	if obs.Norm1 != 120 {
		t.Fatalf("norm1 = %v, want 120", obs.Norm1)
	}
	if obs.Counts.Updates != 40 {
		t.Fatalf("updates = %d, want 40", obs.Counts.Updates)
	}
	if obs.MaxRoot != 0 {
		t.Fatalf("max root = %d, want 0 (nothing promoted)", obs.MaxRoot)
	}
	if obs.EmptyFraction <= 0 || obs.EmptyFraction >= 1 {
		t.Fatalf("empty fraction = %v, want in (0,1)", obs.EmptyFraction)
	}
	load := make([]uint64, sk.Depth())
	for _, stages := range sk.Census() {
		for l, c := range stages {
			load[l] += c.Load
		}
	}
	if load[0] != 240 || load[1] != 0 || load[2] != 0 {
		t.Fatalf("census load = %v, want [240 0 0] (2 trees)", load)
	}
	for l := range load {
		if obs.StageLoad[l] != load[l] {
			t.Fatalf("observed stage load %v, census %v", obs.StageLoad, load)
		}
	}
}

// TestErrorBoundMatchesTheorem51 checks the analyzer's bound equals
// core.Theorem51Bound for the same norm1 and degree.
func TestErrorBoundMatchesTheorem51(t *testing.T) {
	sk := tiny(t)
	// One heavy flow pushes past the leaf: degree grows, second term arms.
	for i := uint64(0); i < 60; i++ {
		sk.Update(key(i), 400) // 400 > leaf cap 254: every flow promotes
	}
	an := NewAnalyzer()
	obs := Observe(sk)
	obs.ExactMaxDegree = sk.MaxDegree()
	rep := an.Note(obs)
	if !rep.MaxDegreeExact || rep.MaxDegree != sk.MaxDegree() {
		t.Fatalf("max degree %d exact=%v, want %d exact", rep.MaxDegree, rep.MaxDegreeExact, sk.MaxDegree())
	}
	want := sk.Theorem51Bound(uint64(rep.Norm1), rep.MaxDegree)
	if math.Abs(rep.ErrorBound-want) > 1e-6*want {
		t.Fatalf("error bound %v, want Theorem51Bound %v", rep.ErrorBound, want)
	}
	if rep.RelativeErrorBound <= 0 {
		t.Fatalf("relative bound %v, want > 0", rep.RelativeErrorBound)
	}
	// Stage-0 bound is the theorem's first term ε·|x|₁.
	eps := math.E / float64(sk.LeafWidth())
	if first := rep.Stages[0].ErrorBound; math.Abs(first-eps*rep.Norm1) > 1e-6*first {
		t.Fatalf("stage-0 bound %v, want eps*norm1 %v", first, eps*rep.Norm1)
	}
}

// TestMaxDegreeBoundWithoutExact: with no exact degree, the analyzer
// uses k^L for the deepest loaded stage — an upper bound on the truth.
func TestMaxDegreeBoundWithoutExact(t *testing.T) {
	sk := tiny(t)
	sk.Update(key(1), 400) // promotes into stage 1 only
	rep := NewAnalyzer().ObserveSketch(sk)
	if rep.MaxDegreeExact {
		t.Fatal("degree marked exact without a virtual-counter walk")
	}
	if rep.MaxDegree != sk.K() {
		t.Fatalf("degree bound %d, want k=%d (deepest loaded stage 1)", rep.MaxDegree, sk.K())
	}
	if exact := sk.MaxDegree(); rep.MaxDegree < exact {
		t.Fatalf("bound %d below exact %d", rep.MaxDegree, exact)
	}
}

// TestCardinalityValidity drives LC from valid to dead: a lightly loaded
// sketch has a trustworthy estimate, a fully occupied stage 1 does not.
func TestCardinalityValidity(t *testing.T) {
	// LC's rel-std-err floor is about 1/√(2·w1): the 5% threshold needs
	// w1 ≥ 200, so this test uses 1024 leaves rather than tiny's 64.
	sk, err := core.New(core.Config{K: 8, Trees: 2, LeafWidth: 1024})
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer()
	rep := an.ObserveSketch(sk)
	if !rep.CardinalityValid || rep.CardinalityEstimate != 0 {
		t.Fatalf("empty sketch: valid=%v card=%v, want valid 0", rep.CardinalityValid, rep.CardinalityEstimate)
	}
	for i := uint64(0); i < 100; i++ {
		sk.Update(key(i), 1)
	}
	rep = an.ObserveSketch(sk)
	if !rep.CardinalityValid {
		t.Fatalf("light load: LC invalid (rel-std-err %v)", rep.CardinalityRelStdErr)
	}
	if rep.CardinalityRelStdErr <= 0 {
		t.Fatalf("rel-std-err %v, want > 0 under load", rep.CardinalityRelStdErr)
	}
	// Flood every leaf: V → 0, the estimate must be flagged dead.
	for i := uint64(0); i < 100000; i++ {
		sk.Update(key(i), 1)
	}
	rep = an.ObserveSketch(sk)
	if rep.CardinalityValid {
		t.Fatal("fully occupied stage 1 still marked valid")
	}
	if rep.CardinalityRelStdErr != -1 {
		t.Fatalf("rel-std-err %v, want -1 sentinel at V=0", rep.CardinalityRelStdErr)
	}
}

// TestSaturationForecast feeds a steady heavy flow and checks the
// forecast fires (finite, shrinking) before actual saturation, then
// reports 0 once the root clamps.
func TestSaturationForecast(t *testing.T) {
	sk, err := core.New(core.Config{K: 2, Trees: 2, LeafWidth: 8, Widths: []int{4, 6, 8}})
	if err != nil {
		t.Fatal(err)
	}
	sk.SetStats(core.NewStats(sk.Depth()))
	an := NewAnalyzer()

	// Per window, the one hot flow gains 20 packets; root cap is 2^8−2 =
	// 254, so the root max grows ~20/window once the lower stages fill.
	hot := key(99)
	var rep Report
	fired, firedAt, satAt := false, 0, 0
	for w := 1; w <= 40; w++ {
		sk.Update(hot, 20)
		rep = an.ObserveSketch(sk)
		if !fired && rep.ForecastWindows >= 0 && !rep.Saturated {
			fired, firedAt = true, w
		}
		if rep.Saturated {
			satAt = w
			break
		}
	}
	if !fired {
		t.Fatal("forecast never fired before saturation")
	}
	if satAt == 0 {
		t.Fatal("root never saturated (test geometry too large?)")
	}
	if firedAt >= satAt {
		t.Fatalf("forecast fired at window %d, not before saturation at %d", firedAt, satAt)
	}
	if rep.ForecastWindows != 0 {
		t.Fatalf("saturated forecast %v, want 0", rep.ForecastWindows)
	}
	if rep.Stages[len(rep.Stages)-1].Recommendation != RecGrow {
		t.Fatal("saturated root not recommended to grow")
	}
}

// TestRecommendations pins the occupancy thresholds.
func TestRecommendations(t *testing.T) {
	an := NewAnalyzer()
	geo := Geometry{K: 8, Trees: 1, Depth: 2, LeafWidth: 64,
		StageNodes: []int{64, 8}, StageCaps: []uint64{254, 65534}}
	obs := Observation{
		Geometry:      geo,
		Norm1:         100,
		Occupancy:     []float64{0.95, 0.05},
		Overflowed:    []int{0, 0},
		StageLoad:     []uint64{100, 0},
		EmptyFraction: 0.05,
		Cardinality:   60,
	}
	rep := an.Note(obs)
	if rep.Stages[0].Recommendation != RecGrow {
		t.Fatalf("95%% occupied leaves -> %q, want grow", rep.Stages[0].Recommendation)
	}
	if rep.Stages[1].Recommendation != RecShrink {
		t.Fatalf("idle root -> %q, want shrink", rep.Stages[1].Recommendation)
	}
	// Midband occupancy: ok.
	obs.Occupancy = []float64{0.5, 0.5}
	rep = an.Note(obs)
	for l, s := range rep.Stages {
		if s.Recommendation != RecOK {
			t.Fatalf("stage %d at 50%% -> %q, want ok", l, s.Recommendation)
		}
	}
}

// TestGeometryChangeResetsHistory: a re-provisioned sketch must not
// inherit the old trend.
func TestGeometryChangeResetsHistory(t *testing.T) {
	an := NewAnalyzer()
	geoA := Geometry{K: 8, Trees: 1, Depth: 2, LeafWidth: 64,
		StageNodes: []int{64, 8}, StageCaps: []uint64{254, 65534}}
	obs := Observation{Geometry: geoA, Occupancy: []float64{0, 0},
		Overflowed: []int{0, 0}, StageLoad: []uint64{0, 0}, EmptyFraction: 1}
	obs.MaxRoot = 10
	an.Note(obs)
	obs.MaxRoot = 20
	rep := an.Note(obs)
	if rep.ForecastWindows < 0 {
		t.Fatalf("growing root gave no forecast: %v", rep.ForecastWindows)
	}
	geoB := geoA
	geoB.LeafWidth, geoB.StageNodes = 128, []int{128, 16}
	obs.Geometry = geoB
	rep = an.Note(obs)
	if rep.ForecastWindows != -1 {
		t.Fatalf("forecast survived geometry change: %v", rep.ForecastWindows)
	}
}

// TestHandlerAndGauges serves a report over HTTP and through the metrics
// registry, checking JSON shape, the text format, and JSON-safety of
// every gauge (no Inf/NaN sentinels).
func TestHandlerAndGauges(t *testing.T) {
	sk := tiny(t)
	for i := uint64(0); i < 30; i++ {
		sk.Update(key(i), 5)
	}
	stretchTTL(t)
	pr := NewProber(func() (Observation, bool) { return Observe(sk), true })

	srv := httptest.NewServer(Handler(pr))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("/debug/insight JSON did not parse: %v", err)
	}
	if rep.Norm1 != 150 || len(rep.Stages) != sk.Depth() {
		t.Fatalf("report = %+v", rep)
	}

	var sb strings.Builder
	WriteText(&sb, rep)
	for _, want := range []string{"|x|1=150", "cardinality", "stages:", "L0:"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("text rendering missing %q:\n%s", want, sb.String())
		}
	}

	reg := telemetry.NewRegistry()
	Instrument(reg, sk.Depth(), pr)
	rr := httptest.NewRecorder()
	reg.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if rr.Code != 200 {
		t.Fatalf("metrics JSON export failed: %d %s", rr.Code, rr.Body.String())
	}
	var m map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
		t.Fatalf("gauge JSON export did not parse (Inf leaked?): %v", err)
	}
	txt := httptest.NewRecorder()
	reg.ServeHTTP(txt, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		"fcm_insight_error_bound_packets", "fcm_insight_cardinality_valid",
		"fcm_insight_saturation_forecast_windows",
		`fcm_insight_stage_recommendation{level="0"}`,
	} {
		if !strings.Contains(txt.Body.String(), want) {
			t.Fatalf("prometheus export missing %q", want)
		}
	}
}

// TestProberTTL: within the TTL the prober must not re-scan.
func TestProberTTL(t *testing.T) {
	calls := 0
	obs := Observation{Geometry: Geometry{K: 8, Trees: 1, Depth: 1, LeafWidth: 8,
		StageNodes: []int{8}, StageCaps: []uint64{254}},
		Occupancy: []float64{0}, Overflowed: []int{0}, StageLoad: []uint64{0}, EmptyFraction: 1}
	stretchTTL(t)
	pr := NewProber(func() (Observation, bool) { calls++; return obs, true })
	pr.Report()
	pr.Report()
	rep, ok := pr.Report()
	if calls != 1 {
		t.Fatalf("prober scanned %d times inside TTL, want 1", calls)
	}
	if !ok || rep.Window != 1 {
		t.Fatalf("report window %d ok=%v, want window 1", rep.Window, ok)
	}
}

// TestProberNothingObserved: a source with nothing to observe yields no
// report — zero gauges and a 503 endpoint — and the prober asks again on
// the next read, inside the TTL, until the source has an observation.
func TestProberNothingObserved(t *testing.T) {
	stretchTTL(t)
	sk := tiny(t)
	have := false
	pr := NewProber(func() (Observation, bool) { return Observe(sk), have })
	if rep, ok := pr.Report(); ok || rep.Stages != nil {
		t.Fatalf("report %+v ok=%v from an empty source", rep, ok)
	}
	rr := httptest.NewRecorder()
	Handler(pr).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/insight", nil))
	if rr.Code != 503 {
		t.Fatalf("empty source served %d, want 503", rr.Code)
	}
	have = true
	if rep, ok := pr.Report(); !ok || len(rep.Stages) != sk.Depth() {
		t.Fatalf("report %+v ok=%v once the source has an observation", rep, ok)
	}
}

// stretchTTL makes every prober cache for an hour until the test ends.
func stretchTTL(t *testing.T) {
	proberTTL = time.Hour
	t.Cleanup(func() { proberTTL = time.Second })
}

// TestFleetTextHighlights: member rollup flags saturating and LC-dead
// members.
func TestFleetTextHighlights(t *testing.T) {
	fr := FleetReport{Members: map[string]Report{
		"10.0.0.1:9401": {Window: 3, Norm1: 100, CardinalityValid: true, ForecastWindows: -1},
		"10.0.0.2:9401": {Window: 3, Norm1: 900, Saturated: true, CardinalityRelStdErr: -1},
	}}
	var sb strings.Builder
	WriteFleetText(&sb, fr)
	out := sb.String()
	if !strings.Contains(out, "10.0.0.2:9401") || !strings.Contains(out, "SATURATED") {
		t.Fatalf("fleet text missing saturated flag:\n%s", out)
	}
	if !strings.Contains(out, "LC-INVALID") {
		t.Fatalf("fleet text missing LC flag:\n%s", out)
	}
}
