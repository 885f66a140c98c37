package exp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// tiny returns options small enough for unit tests (~50K packets).
func tiny() Options {
	return Options{Scale: 0.0025, Seed: 7, EMIterations: 2, Workers: 0}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 0.1 || o.Seed == 0 || o.EMIterations != 5 {
		t.Errorf("defaults %+v", o)
	}
	if o.Packets() != 2_000_000 {
		t.Errorf("packets %d", o.Packets())
	}
	if o.MemoryBytes() != 150_000 {
		t.Errorf("memory %d", o.MemoryBytes())
	}
	if o.HHThreshold() != 1000 {
		t.Errorf("threshold %d", o.HHThreshold())
	}
}

func TestRegistry(t *testing.T) {
	if _, err := Lookup("fig6"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("expected unknown-experiment error")
	}
	list := List()
	if len(list) != 17 {
		t.Errorf("registry has %d experiments", len(list))
	}
	// Figures come before tables, sorted numerically.
	if list[0].ID != "fig6" || list[1].ID != "fig7" {
		t.Errorf("ordering: %s %s", list[0].ID, list[1].ID)
	}
	var sawTable bool
	for _, e := range list {
		if strings.HasPrefix(e.ID, "table") {
			sawTable = true
		}
		if strings.HasPrefix(e.ID, "fig") && sawTable {
			t.Errorf("figure %s after a table", e.ID)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", PaperNote: "note",
		Headers: []string{"a", "b"}}
	tab.AddRow("r1", 0.123456)
	tab.AddRow("r2", 1234567.0)
	tab.AddRow("r3", 0.0)
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "note", "0.1235", "1.235e+06", "r3"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Errorf("CSV has %d lines", lines)
	}
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v
}

func TestRunFig6Shape(t *testing.T) {
	tables, err := RunFig6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("%d tables", len(tables))
	}
	are := tables[0]
	if len(are.Rows) != 5 {
		t.Fatalf("%d k rows", len(are.Rows))
	}
	// Headline: FCM (col 4) must beat CM (col 1) at k=8 and k=16.
	for _, row := range are.Rows {
		if row[0] == "8" || row[0] == "16" {
			if parse(t, row[4]) >= parse(t, row[1]) {
				t.Errorf("k=%s: FCM ARE %s not below CM %s", row[0], row[4], row[1])
			}
		}
	}
	// F1 scores are valid probabilities. At this tiny test scale (3.75KB
	// of sketch) collision noise keeps absolute F1 well below the paper's
	// ≥0.99; only the recommended arities get a floor check.
	for _, row := range tables[2].Rows {
		for col := 1; col <= 3; col++ {
			if v := parse(t, row[col]); v < 0 || v > 1 {
				t.Errorf("k=%s col %d F1 %f invalid", row[0], col, v)
			}
		}
		if row[0] == "8" || row[0] == "16" {
			if v := parse(t, row[2]); v < 0.7 {
				t.Errorf("k=%s FCM F1 %f below floor", row[0], v)
			}
		}
	}
}

func TestRunFig9Shape(t *testing.T) {
	tables, err := RunFig9(tiny())
	if err != nil {
		t.Fatal(err)
	}
	rt, conv := tables[0], tables[1]
	if len(rt.Rows) != 3 {
		t.Fatalf("runtime rows %d", len(rt.Rows))
	}
	for _, row := range rt.Rows {
		if parse(t, row[1]) <= 0 {
			t.Errorf("%s: nonpositive runtime", row[0])
		}
	}
	if len(conv.Rows) != 15 {
		t.Fatalf("convergence rows %d", len(conv.Rows))
	}
	// WMRE must improve (or hold) between iteration 1 and 15 for FCM.
	first := parse(t, conv.Rows[0][1])
	last := parse(t, conv.Rows[len(conv.Rows)-1][1])
	if last > first*1.1 {
		t.Errorf("FCM WMRE diverged: %f -> %f", first, last)
	}
}

func TestRunTable4Shape(t *testing.T) {
	tables, err := RunTable4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) != 7 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Stateful ALU row: FCM must read 12.50%.
	for _, row := range tab.Rows {
		if row[0] == "StatefulALUs" && row[2] != "12.50%" {
			t.Errorf("FCM sALU = %s, want 12.50%%", row[2])
		}
		if row[0] == "PhysicalStages" && (row[2] != "4" || row[3] != "8") {
			t.Errorf("stages = %s/%s, want 4/8", row[2], row[3])
		}
	}
}

func TestRunTable5Shape(t *testing.T) {
	tables, err := RunTable5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 8 {
		t.Errorf("rows %d, want 2 measured + 6 reference", len(tables[0].Rows))
	}
}

func TestRunAppCShape(t *testing.T) {
	tables, err := RunAppC(tiny())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if rows[3][0] != "max additional RE" {
		t.Fatalf("unexpected layout %v", rows)
	}
	if re := parse(t, rows[3][1]); re > 0.002+1e-9 {
		t.Errorf("TCAM extra error %f exceeds 0.2%%", re)
	}
}

func TestRunThm51Holds(t *testing.T) {
	tables, err := RunThm51(tiny())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	holds := rows[len(rows)-1][1]
	if holds != "true" {
		var buf bytes.Buffer
		tables[0].Fprint(&buf) //nolint:errcheck
		t.Errorf("Theorem 5.1 bound violated:\n%s", buf.String())
	}
}

func TestRunAblationShape(t *testing.T) {
	tables, err := RunAblation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	ind := tables[0]
	if len(ind.Rows) != 2 {
		t.Fatalf("indicator rows %d", len(ind.Rows))
	}
	// The max-value marker must not be worse than the flag-bit encoding:
	// it strictly increases every stage's counting capacity.
	marker := parse(t, ind.Rows[0][2])
	flag := parse(t, ind.Rows[1][2])
	if marker > flag*1.05 {
		t.Errorf("marker AAE %f worse than flag-bit AAE %f", marker, flag)
	}
	if len(tables[1].Rows) != 5 {
		t.Errorf("width rows %d", len(tables[1].Rows))
	}
}

func TestRunFig8Shape(t *testing.T) {
	tables, err := RunFig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d tables", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) != 8 {
			t.Fatalf("%s: %d degree rows", tab.Title, len(tab.Rows))
		}
		// Degree-1 counters must dominate degree-2 for every k.
		for col := 1; col <= 5; col++ {
			d1 := parse(t, tab.Rows[0][col])
			d2 := parse(t, tab.Rows[1][col])
			if d2 > d1 {
				t.Errorf("%s col %d: degree-2 count %f exceeds degree-1 %f", tab.Title, col, d2, d1)
			}
		}
	}
}

func TestRunFig13BitIdentical(t *testing.T) {
	tables, err := RunFig13(tiny())
	if err != nil {
		t.Fatal(err)
	}
	acc := tables[0]
	// Rows 0/1 are FCM software vs tofino-model: must match exactly.
	if acc.Rows[0][2] != acc.Rows[1][2] || acc.Rows[0][3] != acc.Rows[1][3] {
		t.Errorf("FCM software vs hardware differ: %v vs %v", acc.Rows[0], acc.Rows[1])
	}
}
