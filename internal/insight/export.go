package insight

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/fcmsketch/fcm/internal/telemetry"
)

// proberTTL bounds how stale a Prober's report may be; in-package tests
// stretch it.
var proberTTL = time.Second

// Prober is the one cache in front of a register scan: Report observes
// the source at most once per second and serves the cached report between
// observations, so every gauge and endpoint read of one scrape shares one
// snapshot and one census, and an aggressive scraper cannot turn
// introspection into ingest overhead. The observation and the analyzer
// update run under one lock: concurrent readers of an expired cache wait
// for one observation instead of each taking their own.
type Prober struct {
	an      *Analyzer
	observe func() (Observation, bool)

	mu   sync.Mutex
	at   time.Time
	last Report
	ok   bool
}

// NewProber wraps an observation source with a fresh analyzer. observe
// reports false when there is nothing to observe (an aggregator before its
// first member snapshot).
func NewProber(observe func() (Observation, bool)) *Prober {
	return &Prober{an: NewAnalyzer(), observe: observe}
}

// Report returns the current report, re-observing once the cached one is
// a TTL old. ok is false, and the report zero, when the source has
// nothing to observe; that outcome is not cached, so the next Report
// tries again.
func (p *Prober) Report() (rep Report, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if now := time.Now(); !p.ok || now.Sub(p.at) >= proberTTL {
		obs, ok := p.observe()
		p.at, p.ok, p.last = now, ok, Report{}
		if ok {
			p.last = p.an.Note(obs)
		}
	}
	return p.last, p.ok
}

// Handler serves a prober's report as the /debug/insight endpoint: JSON
// by default, the fcmctl rendering with ?format=text; 503 while there is
// nothing to report.
func Handler(p *Prober) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rep, ok := p.Report()
		if !ok {
			http.Error(w, "insight: nothing observed yet", http.StatusServiceUnavailable)
			return
		}
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			WriteText(w, rep)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rep) //nolint:errcheck // client went away
	})
}

// recScore encodes a recommendation as a gauge value: grow pressure is
// positive so alerts read naturally (1 grow, 0 ok, −1 shrink).
func recScore(rec string) float64 {
	switch rec {
	case RecGrow:
		return 1
	case RecShrink:
		return -1
	default:
		return 0
	}
}

// Instrument registers the report's headline numbers as gauges so the
// accuracy self-report rides the ordinary scrape path; every gauge reads
// p, so one scrape costs at most one observation. The gauges read zero
// while p has nothing to report. depth fixes how many per-stage series
// are registered (series sets are static in Prometheus; pass the sketch's
// stage count).
func Instrument(reg *telemetry.Registry, depth int, p *Prober) {
	report := func() Report {
		rep, _ := p.Report()
		return rep
	}
	g := func(name, help string, f func(Report) float64) {
		reg.GaugeFunc(name, help, func() float64 { return f(report()) })
	}
	g("fcm_insight_norm1_packets",
		"Stream size |x|1 the accuracy bounds are evaluated at (packets, averaged over trees).",
		func(r Report) float64 { return r.Norm1 })
	g("fcm_insight_error_bound_packets",
		"Theorem 5.1 per-flow count-error bound at the current window (packets, one-sided overestimate).",
		func(r Report) float64 { return r.ErrorBound })
	g("fcm_insight_relative_error_bound",
		"Theorem 5.1 error bound divided by |x|1.",
		func(r Report) float64 { return r.RelativeErrorBound })
	g("fcm_insight_max_degree",
		"Virtual-counter degree D used in the bound (exact when fcm_insight_max_degree_exact is 1, else the structural upper bound).",
		func(r Report) float64 { return float64(r.MaxDegree) })
	g("fcm_insight_max_degree_exact",
		"1 when the reported max degree came from a full virtual-counter walk.",
		func(r Report) float64 { return b2f(r.MaxDegreeExact) })
	g("fcm_insight_cardinality_valid",
		"1 while the linear-counting cardinality estimate is trustworthy (empty leaves remain and rel-std-err is under threshold).",
		func(r Report) float64 { return b2f(r.CardinalityValid) })
	g("fcm_insight_cardinality_rel_std_err",
		"Linear-counting relative standard error of the cardinality estimate (-1 once no leaves are empty).",
		func(r Report) float64 { return r.CardinalityRelStdErr })
	g("fcm_insight_root_headroom",
		"Fraction of root counting capacity still unused by the largest root register (0 = saturating).",
		func(r Report) float64 { return r.RootHeadroom })
	g("fcm_insight_saturated",
		"1 once any root register clamped (counts may be underestimates).",
		func(r Report) float64 { return b2f(r.Saturated) })
	g("fcm_insight_saturation_forecast_windows",
		"Extrapolated windows until the first root register saturates (0 = saturated, -1 = no growth trend).",
		func(r Report) float64 { return r.ForecastWindows })

	for l := 0; l < depth; l++ {
		l := l
		lbl := fmt.Sprintf(`level="%d"`, l)
		reg.GaugeFuncL("fcm_insight_stage_error_bound_packets", lbl,
			"Per-stage collision-error price: e/w_l times the count mass that reached stage l (packets).",
			func() float64 { return report().Stage(l).ErrorBound })
		reg.GaugeFuncL("fcm_insight_stage_promotion_rate", lbl,
			"Promotions out of this stage per window, over the trend history.",
			func() float64 { return report().Stage(l).PromotionRate })
		reg.GaugeFuncL("fcm_insight_stage_recommendation", lbl,
			"Geometry recommendation for this stage: 1 grow, 0 ok, -1 shrink.",
			func() float64 { return recScore(report().Stage(l).Recommendation) })
	}
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// WriteText renders a report the way fcmctl -insight shows it.
func WriteText(w io.Writer, r Report) {
	fmt.Fprintf(w, "insight @ window %d (%s)\n", r.Window, r.At.Format(time.RFC3339))
	fmt.Fprintf(w, "geometry: k=%d trees=%d depth=%d w1=%d\n",
		r.Geometry.K, r.Geometry.Trees, r.Geometry.Depth, r.Geometry.LeafWidth)
	exact := "bound"
	if r.MaxDegreeExact {
		exact = "exact"
	}
	fmt.Fprintf(w, "stream:   |x|1=%.0f packets, max degree D=%d (%s)\n", r.Norm1, r.MaxDegree, exact)
	fmt.Fprintf(w, "error:    <= %.1f packets per flow (%.4f relative, eps=%.2e)\n",
		r.ErrorBound, r.RelativeErrorBound, r.Epsilon)
	card := "VALID"
	if !r.CardinalityValid {
		card = "INVALID"
	}
	se := "n/a"
	if r.CardinalityRelStdErr >= 0 {
		se = fmt.Sprintf("%.4f", r.CardinalityRelStdErr)
	}
	fmt.Fprintf(w, "cardinality: %.0f flows [%s, rel-std-err %s]\n", r.CardinalityEstimate, card, se)
	switch {
	case r.Saturated:
		fmt.Fprintf(w, "saturation: SATURATED (root max %d / %d) — counts may undercount\n",
			r.RootMax, r.RootCapacity)
	case r.ForecastWindows >= 0:
		fmt.Fprintf(w, "saturation: root max %d / %d (headroom %.1f%%), forecast %.1f windows\n",
			r.RootMax, r.RootCapacity, 100*r.RootHeadroom, r.ForecastWindows)
	default:
		fmt.Fprintf(w, "saturation: root max %d / %d (headroom %.1f%%), no growth trend\n",
			r.RootMax, r.RootCapacity, 100*r.RootHeadroom)
	}
	fmt.Fprintln(w, "stages:")
	for _, s := range r.Stages {
		fmt.Fprintf(w, "  L%d: %6d nodes  occ %5.1f%%  overflowed %d  load/tree %.0f  err <= %.1f  promo/window %.1f  -> %s\n",
			s.Level, s.Nodes, 100*s.Occupancy, s.Overflowed, s.LoadPerTree,
			s.ErrorBound, s.PromotionRate, strings.ToUpper(s.Recommendation))
	}
}

// FleetReport is fcmagg's /debug/insight payload: the region rollup plus
// every member switch's own report, keyed by address.
type FleetReport struct {
	Region  *Report           `json:"region,omitempty"`
	Members map[string]Report `json:"members"`
}

// FleetHandler serves a FleetReport source as /debug/insight on an
// aggregator: JSON by default, per-member text with ?format=text.
func FleetHandler(report func() FleetReport) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		fr := report()
		if fr.Members == nil {
			fr.Members = map[string]Report{}
		}
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			WriteFleetText(w, fr)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(fr) //nolint:errcheck // client went away
	})
}

// WriteFleetText renders the fleet rollup: region first, then members
// sorted by address with one summary line each plus flagged conditions.
func WriteFleetText(w io.Writer, fr FleetReport) {
	if fr.Region != nil {
		fmt.Fprintln(w, "== region ==")
		WriteText(w, *fr.Region)
		fmt.Fprintln(w)
	}
	addrs := make([]string, 0, len(fr.Members))
	for a := range fr.Members {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	fmt.Fprintf(w, "== members (%d) ==\n", len(addrs))
	for _, a := range addrs {
		r := fr.Members[a]
		flags := ""
		if r.Saturated {
			flags += "  SATURATED"
		} else if r.ForecastWindows >= 0 && r.ForecastWindows <= forecastHorizon {
			flags += fmt.Sprintf("  SATURATING(%.1fw)", r.ForecastWindows)
		}
		if !r.CardinalityValid {
			flags += "  LC-INVALID"
		}
		fmt.Fprintf(w, "%s: window %d, |x|1=%.0f, err<=%.1f (%.4f rel), card=%.0f%s\n",
			a, r.Window, r.Norm1, r.ErrorBound, r.RelativeErrorBound, r.CardinalityEstimate, flags)
	}
}
