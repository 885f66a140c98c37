package exp

import (
	"fmt"
	"sort"
)

// Runner regenerates one table or figure.
type Runner func(Options) ([]*Table, error)

// Experiment pairs a runner with its description.
type Experiment struct {
	ID          string
	Description string
	Run         Runner
}

// registry holds every experiment, keyed by ID.
var registry = map[string]Experiment{
	"fig6":     {"fig6", "Data-plane query accuracy vs k-ary trees (ARE/AAE/F1/cardinality)", RunFig6},
	"fig7":     {"fig7", "Control-plane query accuracy vs k-ary trees (FSD WMRE, entropy RE)", RunFig7},
	"fig8":     {"fig8", "Histogram of non-empty virtual counters per degree", RunFig8},
	"fig9":     {"fig9", "EM runtime per iteration and convergence", RunFig9},
	"fig10":    {"fig10", "Normalized flow-size errors on Zipf(α) traces", RunFig10},
	"fig11":    {"fig11", "Normalized FSD WMRE on Zipf(α) traces", RunFig11},
	"table3":   {"table3", "Accuracy vs number of trees", RunTable3},
	"fig12":    {"fig12", "Six tasks across a memory sweep vs Elastic and UnivMon", RunFig12},
	"fig13":    {"fig13", "Software vs Tofino-model accuracy", RunFig13},
	"fig14":    {"fig14", "Hardware resources and accuracy vs CM(d)+TopK", RunFig14},
	"table4":   {"table4", "Hardware resource consumption vs switch.p4", RunTable4},
	"table5":   {"table5", "Resource comparison with existing Tofino solutions", RunTable5},
	"appc":     {"appc", "TCAM cardinality table size and added error", RunAppC},
	"thm51":    {"thm51", "Empirical validation of the Theorem 5.1 bound", RunThm51},
	"ablation": {"ablation", "Design ablations: overflow indicator, widths, conservative update", RunAblation},
	"hc":       {"hc", "Heavy-change detection across windows (footnote 4)", RunHeavyChange},
	"speed":    {"speed", "Single-core ingest throughput of every structure", RunSpeed},
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("exp: unknown experiment %q (use List)", id)
	}
	return e, nil
}

// List returns every experiment sorted by ID (figures first, then tables).
func List() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey sorts fig6..fig14 numerically before tables and appendices.
func orderKey(id string) string {
	var n int
	if _, err := fmt.Sscanf(id, "fig%d", &n); err == nil {
		return fmt.Sprintf("a%02d", n)
	}
	if _, err := fmt.Sscanf(id, "table%d", &n); err == nil {
		return fmt.Sprintf("b%02d", n)
	}
	return "c" + id
}
