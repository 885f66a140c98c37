package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared reads the metric units BENCHMARK.json declares, by list.
func declared(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// tiny shrinks every size so each workload runs in about a second; the
// geometry stays the paper default.
var tiny = sizes{
	tracePackets:    1 << 15,
	ingestWindow:    1 << 12,
	ingestRetention: 16,
	queryWindow:     1 << 11,
	queryRetention:  16,
	group:           2,
	collectWindow:   1 << 11,
	collectKeep:     16,
	setupReps:       2,
	querySetupReps:  1,
	ladderPackets:   1 << 12,
	ladderReps:      2,
	isoReps:         2,
	ledgerRounds:    2,
}

// reportMetrics are the end-to-end metrics each workload prints in its
// report, beyond the ones BENCHMARK.json gates.
var reportMetrics = map[string][]string{
	"ingest":  {"fresh_p90_ms", "op_fail_frac"},
	"query":   {"fresh_p90_ms", "op_fail_frac", "fold_p50_ms", "fold_p90_ms", "live_p50_ms", "em_p50_ms"},
	"collect": {"fresh_p90_ms", "op_fail_frac", "wire_kb_per_window"},
}

// runTiny runs one workload at tiny sizes and returns its report line and
// result line.
func runTiny(t *testing.T, workload string, traced, corrupt bool) (map[string]metric, result) {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: 7, seconds: 1, traced: traced, sz: tiny, corruptRef: corrupt}
	if err := run(o, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%s printed %d lines, want stamp, report and result", workload, len(lines))
	}
	var rep struct {
		Report []metric `json:"report"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &rep); err != nil {
		t.Fatalf("%s report: %v", workload, err)
	}
	byName := map[string]metric{}
	for _, m := range rep.Report {
		byName[m.Name] = m
	}
	var res result
	if err := json.Unmarshal([]byte(lines[2]), &res); err != nil {
		t.Fatalf("%s result: %v", workload, err)
	}
	return byName, res
}

func TestSmoke(t *testing.T) {
	e2e, layers := declared(t)
	for _, w := range []string{"ingest", "query", "collect"} {
		for _, traced := range []bool{false, true} {
			report, res := runTiny(t, w, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if traced {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, traced, len(res.Metrics), len(want))
			}
			for n, unit := range want {
				if m, ok := res.Metrics[n]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s missing or not in %s", w, traced, n, unit)
				}
			}
			for _, n := range append(append([]string(nil), endToEnd...), reportMetrics[w]...) {
				if m, ok := report[n]; !ok || m.Unit == "" {
					t.Errorf("%s trace=%v: report lacks %s with its unit", w, traced, n)
				}
			}
			if f := report["op_fail_frac"].Value; f != 0 {
				t.Errorf("%s trace=%v: op_fail_frac = %v", w, traced, f)
			}
		}
	}
}

// TestWrongReferenceCounted feeds every workload's checks a reference with
// one packet dropped: each must count failures instead of passing.
func TestWrongReferenceCounted(t *testing.T) {
	for _, w := range []string{"ingest", "query", "collect"} {
		report, res := runTiny(t, w, false, true)
		if res.Correct || res.Failed == 0 || report["op_fail_frac"].Value == 0 {
			t.Errorf("%s: a wrong reference went unnoticed: correct=%v failed=%d of %d",
				w, res.Correct, res.Failed, res.Attempted)
		}
	}
}
