package exp

import (
	"fmt"
	"math"
	"sort"

	"github.com/fcmsketch/fcm"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/elastic"
	"github.com/fcmsketch/fcm/internal/em"
	"github.com/fcmsketch/fcm/internal/metrics"
	"github.com/fcmsketch/fcm/internal/pisa"
	"github.com/fcmsketch/fcm/internal/sketch"
)

// hwMemory is §8's 1.3MB configuration, scaled.
func (o Options) hwMemory() int { return int(1_300_000 * o.Scale) }

// hwTopKEntries is the hardware filter size (§8.2.2 uses 16K entries),
// clamped to ~1/8 of the hardware memory budget (see TopKEntries for why
// the count is not scaled with the trace).
func (o Options) hwTopKEntries() int {
	n := 16384
	if cap := o.hwMemory() / (8 * 13); n > cap {
		n = cap
	}
	if n < 16 {
		n = 16
	}
	return n
}

// RunFig13 reproduces Fig. 13: software vs Tofino-model accuracy for FCM
// and FCM+TopK at the 1.3MB hardware configuration. The FCM data plane is
// bit-identical; FCM+TopK differs only by the single-level no-eviction
// filter approximation of §8.1.
func RunFig13(o Options) ([]*Table, error) {
	o = o.withDefaults()
	tr, err := o.caidaTrace()
	if err != nil {
		return nil, err
	}
	mem := o.hwMemory()
	truthDist := trueDistribution(tr)
	emo := &fcm.EMOptions{Iterations: o.EMIterations, Workers: o.Workers}

	// Software versions (same implementations as §7.5).
	softFCM, err := newFCM(o, 8, mem)
	if err != nil {
		return nil, err
	}
	softTopK, err := fcm.NewTopK(fcm.TopKConfig{
		Config:      fcm.Config{MemoryBytes: mem, K: 16, Seed: uint32(o.Seed)},
		TopKEntries: o.hwTopKEntries(),
	})
	if err != nil {
		return nil, err
	}
	// Hardware (PISA) versions.
	hwFCM, err := pisa.NewSwitch(pisa.SwitchConfig{
		Program: pisa.ProgramFCM, MemoryBytes: mem, Seed: uint32(o.Seed)})
	if err != nil {
		return nil, err
	}
	hwTopK, err := pisa.NewSwitch(pisa.SwitchConfig{
		Program: pisa.ProgramFCMTopK, MemoryBytes: mem,
		TopKEntries: o.hwTopKEntries(), Seed: uint32(o.Seed)})
	if err != nil {
		return nil, err
	}
	ingest(tr, softFCM, softTopK, hwFCM, hwTopK)

	fsARE, fsAAE := flowErrors(tr, softFCM)
	tsARE, tsAAE := flowErrors(tr, softTopK)
	fhARE, fhAAE := flowErrors(tr, hwFCM)
	thARE, thAAE := flowErrors(tr, hwTopK)

	acc := &Table{ID: "fig13a", Title: "ARE and AAE of flow size: software vs Tofino model",
		PaperNote: "FCM identical on both; FCM+TopK slightly worse on Tofino (1.01→1.11 ARE)",
		Headers:   []string{"variant", "platform", "ARE", "AAE"}}
	acc.AddRow("FCM", "software", fsARE, fsAAE)
	acc.AddRow("FCM", "tofino-model", fhARE, fhAAE)
	acc.AddRow("FCM+TopK", "software", tsARE, tsAAE)
	acc.AddRow("FCM+TopK", "tofino-model", thARE, thAAE)

	softDist, err := softFCM.FlowSizeDistribution(emo)
	if err != nil {
		return nil, err
	}
	softTDist, err := softTopK.FlowSizeDistribution(emo)
	if err != nil {
		return nil, err
	}
	hwDist, err := distFromSwitch(hwFCM, emo, o.EMMetrics)
	if err != nil {
		return nil, err
	}
	hwTDist, err := distFromSwitch(hwTopK, emo, o.EMMetrics)
	if err != nil {
		return nil, err
	}
	wm := &Table{ID: "fig13b", Title: "Flow size distribution WMRE: software vs Tofino model",
		PaperNote: "paper: FCM 0.035/0.035, FCM+TopK 0.031/0.033",
		Headers:   []string{"variant", "platform", "WMRE"}}
	wm.AddRow("FCM", "software", metrics.WMRE(truthDist, softDist))
	wm.AddRow("FCM", "tofino-model", metrics.WMRE(truthDist, hwDist))
	wm.AddRow("FCM+TopK", "software", metrics.WMRE(truthDist, softTDist))
	wm.AddRow("FCM+TopK", "tofino-model", metrics.WMRE(truthDist, hwTDist))
	return []*Table{acc, wm}, nil
}

// distFromSwitch runs the control-plane EM on a hardware switch's
// collected registers (plus exact filter residents when present).
func distFromSwitch(sw *pisa.Switch, emo *fcm.EMOptions, m *em.Metrics) ([]float64, error) {
	sk := sw.Sketch()
	res, err := em.RunSketchConfig(sk, em.Config{
		Iterations: emo.Iterations,
		Workers:    emo.Workers,
		Metrics:    m,
	})
	if err != nil {
		return nil, err
	}
	dist := res.Dist
	if f := sw.Filter(); f != nil {
		dist = f.AddResidents(dist, sk.Estimate)
	}
	return dist, nil
}

// cmSwitchDistribution estimates the FSD of a CM(d)+TopK switch the
// ElasticSketch way: degree-1 EM over the first light row plus exact
// filter residents.
func cmSwitchDistribution(sw *pisa.Switch, o Options) ([]float64, error) {
	return elastic.Distribution(sw.CM(), sw.Filter(), em.Config{
		Iterations: o.EMIterations,
		Workers:    o.Workers,
		Metrics:    o.EMMetrics,
	})
}

// RunFig14 reproduces Fig. 14: normalized hardware resources and accuracy
// of FCM, FCM+TopK and CM(2/4/8)+TopK on the Tofino model.
func RunFig14(o Options) ([]*Table, error) {
	o = o.withDefaults()
	tr, err := o.caidaTrace()
	if err != nil {
		return nil, err
	}
	mem := o.hwMemory()
	truthDist := trueDistribution(tr)
	truthH := trueEntropy(tr)
	emo := &fcm.EMOptions{Iterations: o.EMIterations, Workers: o.Workers}

	type variant struct {
		name string
		sw   *pisa.Switch
	}
	var variants []variant
	fcmSW, err := pisa.NewSwitch(pisa.SwitchConfig{
		Program: pisa.ProgramFCM, MemoryBytes: mem, Seed: uint32(o.Seed)})
	if err != nil {
		return nil, err
	}
	variants = append(variants, variant{"FCM", fcmSW})
	topkSW, err := pisa.NewSwitch(pisa.SwitchConfig{
		Program: pisa.ProgramFCMTopK, MemoryBytes: mem,
		TopKEntries: o.hwTopKEntries(), Seed: uint32(o.Seed)})
	if err != nil {
		return nil, err
	}
	variants = append(variants, variant{"FCM+TopK", topkSW})
	for _, d := range []int{2, 4, 8} {
		sw, err := pisa.NewSwitch(pisa.SwitchConfig{
			Program: pisa.ProgramCMTopK, MemoryBytes: mem, CMRows: d,
			TopKEntries: o.hwTopKEntries(), Seed: uint32(o.Seed)})
		if err != nil {
			return nil, fmt.Errorf("fig14 CM(%d): %w", d, err)
		}
		variants = append(variants, variant{fmt.Sprintf("CM(%d)+TopK", d), sw})
	}

	// Fig. 14a: resources normalized to FCM.
	res := &Table{ID: "fig14a", Title: "Hardware resources normalized to FCM",
		PaperNote: "paper: FCM+TopK 1.7x sALU, 2.0x stages; CM(8)+TopK 2.0x sALU, 1.5x stages",
		Headers:   []string{"variant", "SRAM", "sALU", "HashBits", "Stages"}}
	base := fcmSW.Allocation()
	baseTot := base.Totals()
	for _, v := range variants {
		tot := v.sw.Allocation().Totals()
		res.AddRow(v.name,
			float64(tot.SRAMBlocks)/float64(baseTot.SRAMBlocks),
			float64(tot.SALUs)/float64(baseTot.SALUs),
			float64(tot.HashBits)/float64(baseTot.HashBits),
			float64(v.sw.Allocation().NumStages())/float64(base.NumStages()))
	}

	// Ingest once for all.
	updaters := make([]sketch.Updater, len(variants))
	for i := range variants {
		updaters[i] = variants[i].sw
	}
	ingest(tr, updaters...)

	aae := &Table{ID: "fig14b", Title: "AAE of flow size on the Tofino model",
		PaperNote: "paper: FCM 2.87, FCM+TopK 2.73, CM(2/4/8)+TopK 6.98/6.65/8.25 — ≥50% lower for FCM",
		Headers:   []string{"variant", "AAE"}}
	cdf := &Table{ID: "fig14c", Title: "Absolute-error quantiles per variant (CDF summary)",
		PaperNote: "CM+TopK error concentrates on large flows (8-bit light counters overflow)",
		Headers:   []string{"variant", "p50", "p90", "p99", "max"}}
	wm := &Table{ID: "fig14d", Title: "Flow size distribution WMRE on the Tofino model",
		PaperNote: "paper: FCM 0.035, FCM+TopK 0.033, CM+TopK 0.070/0.167/0.604",
		Headers:   []string{"variant", "WMRE"}}
	ent := &Table{ID: "fig14e", Title: "Entropy RE on the Tofino model",
		PaperNote: "paper: FCM 0.002, FCM+TopK 0.001, CM+TopK 0.018/0.021/0.032",
		Headers:   []string{"variant", "RE"}}

	for _, v := range variants {
		_, a := flowErrors(tr, v.sw)
		aae.AddRow(v.name, a)
		truth := make([]float64, tr.NumFlows())
		est := make([]float64, tr.NumFlows())
		for i, key := range tr.Keys {
			truth[i] = float64(tr.Sizes[i])
			est[i] = float64(v.sw.Estimate(key.Bytes()))
		}
		errs := sortedAbsErrors(truth, est)
		q := func(p float64) float64 { return errs[int(p*float64(len(errs)-1))] }
		cdf.AddRow(v.name, q(0.50), q(0.90), q(0.99), errs[len(errs)-1])
		if sk := v.sw.Sketch(); sk != nil {
			dist, err := distFromSwitch(v.sw, emo, o.EMMetrics)
			if err != nil {
				return nil, err
			}
			wm.AddRow(v.name, metrics.WMRE(truthDist, dist))
			ent.AddRow(v.name, metrics.RE(truthH, fcm.EntropyOf(dist)))
		} else {
			// CM(d)+TopK estimates the FSD from its light counters via
			// the same degree-1 EM machinery.
			dist, err := cmSwitchDistribution(v.sw, o)
			if err != nil {
				return nil, err
			}
			wm.AddRow(v.name, metrics.WMRE(truthDist, dist))
			ent.AddRow(v.name, metrics.RE(truthH, fcm.EntropyOf(dist)))
		}
		o.logf("fig14: %s done", v.name)
	}
	return []*Table{res, aae, cdf, wm, ent}, nil
}

// hwGeometry solves the FCM geometry for the hardware memory budget minus
// the filter, mirroring what NewSwitch does internally.
func hwGeometry(o Options, withFilter bool) (pisa.FCMGeometry, pisa.TopKGeometry, error) {
	mem := o.hwMemory()
	tg := pisa.TopKGeometry{Entries: o.hwTopKEntries(), KeyBytes: 4}
	k := 8
	if withFilter {
		mem -= tg.Entries * 13
		k = 16
	}
	sk, err := core.New(core.Config{K: k, Trees: 2, MemoryBytes: mem})
	if err != nil {
		return pisa.FCMGeometry{}, tg, err
	}
	return pisa.FCMGeometry{
		Trees: 2, K: k, LeafWidth: sk.LeafWidth(), Widths: sk.Widths(), KeyBytes: 4,
	}, tg, nil
}

// RunTable4 reproduces Table 4: utilization percentages of FCM and
// FCM+TopK next to the published switch.p4 reference row. As in the paper,
// the optional cardinality extension (extra sALUs, TCAM, one stage) is
// reported separately in §8.3 and excluded here.
func RunTable4(o Options) ([]*Table, error) {
	o = o.withDefaults()
	fg, _, err := hwGeometry(o, false)
	if err != nil {
		return nil, err
	}
	fcmAlloc, err := pisa.CompileFCM(fg, pisa.DefaultLimits())
	if err != nil {
		return nil, err
	}
	tg16, tgeom, err := hwGeometry(o, true)
	if err != nil {
		return nil, err
	}
	topkAlloc, err := pisa.CompileFCMTopK(tg16, tgeom, pisa.DefaultLimits())
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "table4", Title: "Hardware resource consumption (fraction of pipeline)",
		PaperNote: "paper (1.3MB): FCM 9.38% SRAM, 12.50% sALU, 4 stages; FCM+TopK 9.48%, 20.83%, 8 stages",
		Headers:   []string{"resource", "switch.p4(paper)", "FCM-Sketch", "FCM+TopK"}}
	ref := pisa.SwitchP4Reference()
	uf := fcmAlloc.Utilization()
	ut := topkAlloc.Utilization()
	for _, r := range []string{"SRAM", "MatchCrossbar", "TCAM", "StatefulALUs", "HashBits", "VLIWActions"} {
		t.AddRow(r, pct(ref[r]), pct(uf[r]), pct(ut[r]))
	}
	t.AddRow("PhysicalStages", "12",
		fmt.Sprintf("%d", fcmAlloc.NumStages()),
		fmt.Sprintf("%d", topkAlloc.NumStages()))
	return []*Table{t}, nil
}

// RunTable5 reproduces Table 5: stage and stateful-ALU comparison with the
// published numbers for other Tofino measurement systems.
func RunTable5(o Options) ([]*Table, error) {
	o = o.withDefaults()
	fg, _, err := hwGeometry(o, false)
	if err != nil {
		return nil, err
	}
	fcmAlloc, err := pisa.CompileFCM(fg, pisa.DefaultLimits())
	if err != nil {
		return nil, err
	}
	tg16, tgeom, err := hwGeometry(o, true)
	if err != nil {
		return nil, err
	}
	topkAlloc, err := pisa.CompileFCMTopK(tg16, tgeom, pisa.DefaultLimits())
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "table5", Title: "Resource comparison with existing Tofino solutions",
		PaperNote: "FCM rows measured by this model; other rows are the paper's published figures",
		Headers:   []string{"solution", "measurement", "stages", "statefulALUs"}}
	t.AddRow("FCM-Sketch (measured)", "Generic",
		fmt.Sprintf("%d", fcmAlloc.NumStages()),
		pct(fcmAlloc.Utilization()["StatefulALUs"]))
	t.AddRow("FCM+TopK (measured)", "Generic",
		fmt.Sprintf("%d", topkAlloc.NumStages()),
		pct(topkAlloc.Utilization()["StatefulALUs"]))
	for _, r := range pisa.Table5Reference() {
		stages, salu := "BMv2 only", "BMv2 only"
		if r.Stages >= 0 {
			stages = fmt.Sprintf("%d", r.Stages)
			salu = pct(r.SALUFrac)
		}
		t.AddRow(r.Name+" (paper)", r.Measurement, stages, salu)
	}
	return []*Table{t}, nil
}

// RunAppC reproduces Appendix C: the TCAM cardinality table's size and
// additional error at the hardware scale.
func RunAppC(o Options) ([]*Table, error) {
	o = o.withDefaults()
	sw, err := pisa.NewSwitch(pisa.SwitchConfig{Program: pisa.ProgramFCM, MemoryBytes: o.hwMemory()})
	if err != nil {
		return nil, err
	}
	tab := sw.TCAM()
	w1 := sw.Sketch().LeafWidth()
	t := &Table{ID: "appc", Title: "TCAM cardinality lookup table (Appendix C)",
		PaperNote: "paper: ~two orders of magnitude fewer entries, additional error ≤0.2%",
		Headers:   []string{"quantity", "value"}}
	t.AddRow("leaf nodes w1", w1)
	t.AddRow("installed TCAM entries", tab.Entries())
	t.AddRow("compression", fmt.Sprintf("%.0fx", float64(w1)/float64(tab.Entries())))
	t.AddRow("max additional RE", tab.MaxRelativeError())
	return []*Table{t}, nil
}

// RunThm51 empirically validates Theorem 5.1: the count-query error bound
// holds with probability ≥ 1−δ.
func RunThm51(o Options) ([]*Table, error) {
	o = o.withDefaults()
	tr, err := o.caidaTrace()
	if err != nil {
		return nil, err
	}
	// Use a deliberately small sketch so errors are visible.
	mem := o.MemoryBytes() / 8
	f, err := newFCM(o, 8, mem)
	if err != nil {
		return nil, err
	}
	ingest(tr, f)

	c := f.Core()
	w1 := float64(c.LeafWidth())
	theta1 := float64(c.StageMax(0))
	eps := math.E / w1
	d := c.NumTrees()
	delta := math.Exp(-float64(d))
	norm1 := float64(tr.NumPackets())

	// Maximum virtual-counter degree D.
	maxDeg := 0
	for _, vcs := range c.VirtualCounters() {
		for _, vc := range vcs {
			if vc.Degree > maxDeg {
				maxDeg = vc.Degree
			}
		}
	}
	bound := eps * norm1
	if norm1 > w1*theta1 {
		bound += eps * float64(maxDeg-1) * (norm1 - w1*theta1)
	}

	violations := 0
	for i, k := range tr.Keys {
		est := float64(f.Estimate(k.Bytes()))
		if est > float64(tr.Sizes[i])+bound {
			violations++
		}
	}
	frac := float64(violations) / float64(tr.NumFlows())

	t := &Table{ID: "thm51", Title: "Empirical check of Theorem 5.1's error bound",
		PaperNote: "P[err > ε·|x|₁ + ε(D−1)(|x|₁−w1θ1)⁺] ≤ δ = e^(−d)",
		Headers:   []string{"quantity", "value"}}
	t.AddRow("w1", c.LeafWidth())
	t.AddRow("epsilon = e/w1", eps)
	t.AddRow("delta = e^-d", delta)
	t.AddRow("max degree D", maxDeg)
	t.AddRow("bound (packets)", bound)
	t.AddRow("violating flows", violations)
	t.AddRow("violation fraction", frac)
	t.AddRow("bound holds", fmt.Sprintf("%v", frac <= delta))
	return []*Table{t}, nil
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }

// sortedAbsErrors returns the sorted per-flow absolute errors.
func sortedAbsErrors(truth []float64, est []float64) []float64 {
	errs := make([]float64, len(truth))
	for i := range truth {
		errs[i] = math.Abs(est[i] - truth[i])
	}
	sort.Float64s(errs)
	return errs
}
