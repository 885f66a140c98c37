package collect

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fcmsketch/fcm/internal/telemetry/tracing"
)

// TestFleetPollTraceCoverage: with the flight recorder enabled, one
// member poll through an aggregator produces a single trace whose spans
// cover the whole collection path — gate wait, client attempt, frame
// decode, delta apply, aggregator absorb, and window delivery — so an
// operator can explain any one window end to end from /debug/traces.
func TestFleetPollTraceCoverage(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", NewLockedSketch(filledSketch(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec := tracing.NewRecorder(tracing.RecorderConfig{})
	var windows atomic.Int64
	agg, err := NewAggregator(AggregatorConfig{
		Members: []PollerConfig{{
			Addr:       srv.Addr(),
			OnSnapshot: func(*Snapshot) { windows.Add(1) },
		}},
		Interval: 20 * time.Millisecond,
		Tracer:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for windows.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	agg.Stop()
	if windows.Load() < 3 {
		t.Fatalf("only %d windows collected before the deadline", windows.Load())
	}

	want := []string{"gate.wait", "client.attempt", "decode", "delta.apply", "aggregator.absorb", "deliver"}
	var covered *tracing.ExportedTrace
	traces := rec.Traces()
	for i := range traces {
		tr := &traces[i]
		if tr.Name != "poll" {
			continue
		}
		have := map[string]bool{}
		for _, sp := range tr.Spans {
			have[sp.Name] = true
		}
		all := true
		for _, w := range want {
			if !have[w] {
				all = false
			}
		}
		if all {
			covered = tr
			break
		}
	}
	if covered == nil {
		var seen []string
		for _, tr := range traces {
			names := make([]string, 0, len(tr.Spans))
			for _, sp := range tr.Spans {
				names = append(names, sp.Name)
			}
			seen = append(seen, tr.Name+"["+strings.Join(names, ",")+"]")
		}
		t.Fatalf("no poll trace covers %v; retained: %s", want, strings.Join(seen, " "))
	}

	// The root span carries the member address, and the delta apply span
	// says whether the frame was a full snapshot or a true delta — the
	// fallback-visibility half of the tentpole.
	if got := covered.Spans[0].Attrs["addr"]; got != srv.Addr() {
		t.Errorf("poll trace addr = %q, want %q", got, srv.Addr())
	}
	for _, sp := range covered.Spans {
		if sp.Name == "delta.apply" {
			if kind := sp.Attrs["kind"]; kind != "full" && kind != "delta" {
				t.Errorf("delta.apply span kind = %q, want full or delta", kind)
			}
		}
	}
	if st := rec.Stats(); st.Started == 0 || st.Finished == 0 {
		t.Errorf("recorder stats %+v: expected started and finished traces", st)
	}
}

// TestFleetTracingDisabledRecordsNothing: a disabled recorder threaded
// through the same fleet path stays empty — the nil-safe span API means
// disabled tracing is free on every poll.
func TestFleetTracingDisabledRecordsNothing(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", NewLockedSketch(filledSketch(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec := tracing.NewRecorder(tracing.RecorderConfig{})
	rec.SetEnabled(false)
	var windows atomic.Int64
	agg, err := NewAggregator(AggregatorConfig{
		Members: []PollerConfig{{
			Addr:       srv.Addr(),
			OnSnapshot: func(*Snapshot) { windows.Add(1) },
		}},
		Interval: 20 * time.Millisecond,
		Tracer:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for windows.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	agg.Stop()
	if windows.Load() < 2 {
		t.Fatalf("only %d windows collected before the deadline", windows.Load())
	}
	if got := rec.Traces(); len(got) != 0 {
		t.Fatalf("disabled recorder retained %d traces", len(got))
	}
	if st := rec.Stats(); st.Started != 0 {
		t.Fatalf("disabled recorder started %d traces", st.Started)
	}
}
