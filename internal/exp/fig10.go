package exp

import (
	"fmt"

	"github.com/fcmsketch/fcm"
	"github.com/fcmsketch/fcm/internal/cmsketch"
	"github.com/fcmsketch/fcm/internal/metrics"
	"github.com/fcmsketch/fcm/internal/mrac"
)

// fig10Alphas is the Zipf skewness sweep of §7.4.
var fig10Alphas = []float64{1.1, 1.3, 1.5, 1.7}

// fig10Ks is the arity sweep of §7.4.
var fig10Ks = []int{4, 8, 16, 32}

// RunFig10 reproduces Fig. 10: flow-size ARE and AAE of FCM{4..32} and
// FCM{4..32}+TopK on Zipf(α) traces, normalized to CM-Sketch.
func RunFig10(o Options) ([]*Table, error) {
	o = o.withDefaults()
	mem := o.MemoryBytes()

	are := &Table{ID: "fig10a", Title: "Normalized ARE of flow size on Zipf(α) traces (CM = 1)",
		PaperNote: "all FCM variants below CM for every α; 32-ary can trail 4-ary at α=1.3/1.5",
		Headers:   append([]string{"variant"}, alphaHeaders()...)}
	aae := &Table{ID: "fig10b", Title: "Normalized AAE of flow size on Zipf(α) traces (CM = 1)",
		PaperNote: "FCM32 shows ~2x the AAE of FCM4 at α=1.3/1.5; TopK variants less sensitive",
		Headers:   append([]string{"variant"}, alphaHeaders()...)}

	type cell struct{ are, aae float64 }
	results := make(map[string][]cell)
	order := []string{"CM"}
	for _, k := range fig10Ks {
		order = append(order, fmt.Sprintf("FCM%d", k))
	}
	for _, k := range fig10Ks {
		order = append(order, fmt.Sprintf("FCM%d+TopK", k))
	}

	for _, alpha := range fig10Alphas {
		tr, err := zipfTrace(o, alpha)
		if err != nil {
			return nil, err
		}
		o.logf("fig10: alpha=%.1f trace: %d pkts %d flows max %d",
			alpha, tr.NumPackets(), tr.NumFlows(), tr.MaxSize())

		cm, err := cmsketch.New(cmsketch.Config{MemoryBytes: mem, Rows: 3})
		if err != nil {
			return nil, err
		}
		ingest(tr, cm)
		cmARE, cmAAE := flowErrors(tr, cm)
		results["CM"] = append(results["CM"], cell{1, 1})

		for _, k := range fig10Ks {
			f, err := newFCM(o, k, mem)
			if err != nil {
				return nil, err
			}
			ft, err := newFCMTopK(o, k, mem)
			if err != nil {
				return nil, err
			}
			ingest(tr, f, ft)
			fARE, fAAE := flowErrors(tr, f)
			tARE, tAAE := flowErrors(tr, ft)
			results[fmt.Sprintf("FCM%d", k)] = append(results[fmt.Sprintf("FCM%d", k)],
				cell{fARE / cmARE, fAAE / cmAAE})
			results[fmt.Sprintf("FCM%d+TopK", k)] = append(results[fmt.Sprintf("FCM%d+TopK", k)],
				cell{tARE / cmARE, tAAE / cmAAE})
		}
	}

	for _, name := range order {
		rowA := []any{name}
		rowB := []any{name}
		for _, c := range results[name] {
			rowA = append(rowA, c.are)
			rowB = append(rowB, c.aae)
		}
		are.AddRow(rowA...)
		aae.AddRow(rowB...)
	}
	return []*Table{are, aae}, nil
}

// RunFig11 reproduces Fig. 11: flow-size-distribution WMRE on Zipf(α)
// traces normalized to MRAC.
func RunFig11(o Options) ([]*Table, error) {
	o = o.withDefaults()
	mem := o.MemoryBytes()

	t := &Table{ID: "fig11", Title: "Normalized WMRE of flow size distribution on Zipf(α) (MRAC = 1)",
		PaperNote: "all FCM/FCM+TopK below MRAC for every α; 32-ary slightly above 8-ary",
		Headers:   append([]string{"variant"}, alphaHeaders()...)}

	rows := map[string][]float64{"MRAC": nil}
	order := []string{"MRAC"}
	for _, k := range fig10Ks {
		order = append(order, fmt.Sprintf("FCM%d", k))
	}
	for _, k := range fig10Ks {
		order = append(order, fmt.Sprintf("FCM%d+TopK", k))
	}

	for _, alpha := range fig10Alphas {
		tr, err := zipfTrace(o, alpha)
		if err != nil {
			return nil, err
		}
		truthDist := trueDistribution(tr)

		mr, err := mrac.New(mrac.Config{MemoryBytes: mem})
		if err != nil {
			return nil, err
		}
		ingest(tr, mr)
		mrRes, err := mr.EstimateDistribution(o.EMIterations, o.Workers, nil)
		if err != nil {
			return nil, err
		}
		base := metrics.WMRE(truthDist, mrRes.Dist)
		rows["MRAC"] = append(rows["MRAC"], 1)

		emo := &fcm.EMOptions{Iterations: o.EMIterations, Workers: o.Workers}
		for _, k := range fig10Ks {
			f, err := newFCM(o, k, mem)
			if err != nil {
				return nil, err
			}
			ft, err := newFCMTopK(o, k, mem)
			if err != nil {
				return nil, err
			}
			ingest(tr, f, ft)
			fd, err := f.FlowSizeDistribution(emo)
			if err != nil {
				return nil, err
			}
			td, err := ft.FlowSizeDistribution(emo)
			if err != nil {
				return nil, err
			}
			rows[fmt.Sprintf("FCM%d", k)] = append(rows[fmt.Sprintf("FCM%d", k)],
				metrics.WMRE(truthDist, fd)/base)
			rows[fmt.Sprintf("FCM%d+TopK", k)] = append(rows[fmt.Sprintf("FCM%d+TopK", k)],
				metrics.WMRE(truthDist, td)/base)
		}
		o.logf("fig11: alpha=%.1f done", alpha)
	}

	for _, name := range order {
		row := []any{name}
		for _, v := range rows[name] {
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

func alphaHeaders() []string {
	out := make([]string, len(fig10Alphas))
	for i, a := range fig10Alphas {
		out[i] = fmt.Sprintf("Zipf(%.1f)", a)
	}
	return out
}

// RunTable3 reproduces Table 3: FCM (8-ary) and FCM+TopK (16-ary) accuracy
// across 2, 3 and 4 trees.
func RunTable3(o Options) ([]*Table, error) {
	o = o.withDefaults()
	tr, err := o.caidaTrace()
	if err != nil {
		return nil, err
	}
	mem := o.MemoryBytes()
	truthDist := trueDistribution(tr)
	truthH := trueEntropy(tr)

	t := &Table{ID: "table3", Title: "FCM (8-ary) and FCM+TopK (16-ary) vs number of trees",
		PaperNote: "more trees: better flow-size ARE/AAE, worse FSD WMRE and entropy RE (paper picks 2)",
		Headers:   []string{"variant", "trees", "ARE", "AAE", "WMRE", "entropyRE", "cardRE"}}

	emo := &fcm.EMOptions{Iterations: o.EMIterations, Workers: o.Workers}
	for _, trees := range []int{2, 3, 4} {
		f, err := fcm.NewSketch(fcm.Config{MemoryBytes: mem, K: 8, Trees: trees, Seed: uint32(o.Seed)})
		if err != nil {
			return nil, err
		}
		ft, err := fcm.NewTopK(fcm.TopKConfig{
			Config:      fcm.Config{MemoryBytes: mem, K: 16, Trees: trees, Seed: uint32(o.Seed)},
			TopKEntries: o.TopKEntries(mem),
		})
		if err != nil {
			return nil, err
		}
		ingest(tr, f, ft)

		fARE, fAAE := flowErrors(tr, f)
		fd, err := f.FlowSizeDistribution(emo)
		if err != nil {
			return nil, err
		}
		t.AddRow("FCM", trees, fARE, fAAE,
			metrics.WMRE(truthDist, fd),
			metrics.RE(truthH, fcm.EntropyOf(fd)),
			cardRE(tr, f.Cardinality()))

		tARE, tAAE := flowErrors(tr, ft)
		td, err := ft.FlowSizeDistribution(emo)
		if err != nil {
			return nil, err
		}
		t.AddRow("FCM+TopK", trees, tARE, tAAE,
			metrics.WMRE(truthDist, td),
			metrics.RE(truthH, fcm.EntropyOf(td)),
			cardRE(tr, ft.Cardinality()))
		o.logf("table3: trees=%d done", trees)
	}
	return []*Table{t}, nil
}
