package collect

import (
	"sync/atomic"

	"github.com/fcmsketch/fcm/internal/telemetry"
)

// The Instrument methods bind a component's Stats() snapshot to registry
// series. labels is an optional Prometheus label set (e.g. `switch="0"`)
// so one registry can carry several pollers or servers side by side; ""
// registers unlabeled series.

// Instrument registers the server's counters: connections, frames served,
// rotations, rejected requests, accept-loop retries.
func (s *Server) Instrument(reg *telemetry.Registry, labels string) {
	bind := statBinder{reg: reg, labels: labels}
	bind.counter("fcm_collect_server_conns_total",
		"Connections ever served by the collection server.",
		func() float64 { return float64(s.totalConns.Load()) })
	bind.gauge("fcm_collect_server_active_conns",
		"Connections being served right now.",
		func() float64 { return float64(s.activeConns.Load()) })
	bind.counter("fcm_collect_server_accept_retries_total",
		"Accept-loop failures that triggered backoff.",
		func() float64 { return float64(s.acceptRetries.Load()) })
	bind.counter("fcm_collect_server_resets_total",
		"Window rotations performed (OpResetSketch).",
		func() float64 { return float64(s.resets.Load()) })
	bind.counter("fcm_collect_server_errors_total",
		"Requests answered with an error status.",
		func() float64 { return float64(s.reqErrors.Load()) })
	bind.counter("fcm_collect_rejected_conns_total",
		"Connections closed at the MaxConns cap instead of being served.",
		func() float64 { return float64(s.rejectedConns.Load()) })
	bind.counter("fcm_collect_server_delta_reads_total",
		"Register reads served (codec v3 deltas and embedded fulls).",
		func() float64 { return float64(s.deltaReads.Load()) })
	bind.gauge("fcm_collect_server_sessions",
		"Delta sessions currently tracked.",
		func() float64 { return float64(s.sessions.len()) })
	for _, kind := range []struct {
		label string
		ctr   *atomic.Uint64
	}{
		{"delta", &s.deltaWireBytes},
		{"full", &s.fullWireBytes},
	} {
		ctr := kind.ctr
		kindLabel := `kind="` + kind.label + `"`
		if labels != "" {
			kindLabel = labels + "," + kindLabel
		}
		reg.CounterFuncL("fcm_collect_server_wire_bytes_total", kindLabel,
			"Snapshot payload bytes served, split delta vs full.",
			func() float64 { return float64(ctr.Load()) })
	}
	for i := range s.fallbacks {
		ctr := &s.fallbacks[i]
		reasonLabel := `reason="` + fallbackReasons[i] + `"`
		if labels != "" {
			reasonLabel = labels + "," + reasonLabel
		}
		reg.CounterFuncL("fcm_collect_server_fallback_total", reasonLabel,
			"Codec v3 requests degraded to a full snapshot, by reason.",
			func() float64 { return float64(ctr.Load()) })
	}
}

// Instrument registers the client's recovery counters: dials, read
// retries, and decode (CRC) failures.
func (c *Client) Instrument(reg *telemetry.Registry, labels string) {
	bind := statBinder{reg: reg, labels: labels}
	bind.counter("fcm_collect_client_dials_total",
		"Connection establishments (first dial and redials).",
		func() float64 { return float64(c.Stats().Dials) })
	bind.counter("fcm_collect_client_retries_total",
		"Retried idempotent snapshot reads.",
		func() float64 { return float64(c.Stats().Retries) })
	bind.counter("fcm_collect_client_decode_failures_total",
		"Responses that framed cleanly but failed decoding (CRC mismatch).",
		func() float64 { return float64(c.Stats().DecodeFailures) })
	bind.counter("fcm_collect_client_deltas_applied_total",
		"Codec v3 delta frames applied to the local baseline.",
		func() float64 { return float64(c.Stats().DeltasApplied) })
	bind.counter("fcm_collect_client_full_snapshots_total",
		"Full snapshots received on the codec v3 path.",
		func() float64 { return float64(c.Stats().FullSnapshots) })
	bind.counter("fcm_collect_client_delta_fallbacks_total",
		"Client-side baseline invalidations (unapplicable deltas).",
		func() float64 { return float64(c.Stats().DeltaFallbacks) })
}

// Instrument registers the poller's progress and health series, including
// its client's recovery counters.
func (p *Poller) Instrument(reg *telemetry.Registry, labels string) {
	p.client.Instrument(reg, labels)
	bind := statBinder{reg: reg, labels: labels}
	bind.counter("fcm_poller_collected_total",
		"Snapshots delivered by the collection loop.",
		func() float64 { return float64(p.Stats().Collected) })
	bind.counter("fcm_poller_failed_total",
		"Collection attempts that delivered nothing.",
		func() float64 { return float64(p.Stats().Failed) })
	bind.counter("fcm_poller_skipped_windows_total",
		"Scheduled collections that produced no snapshot.",
		func() float64 { return float64(p.Stats().SkippedWindows) })
	bind.gauge("fcm_poller_consecutive_failures",
		"Current failure streak (0 when healthy).",
		func() float64 { return float64(p.Stats().ConsecutiveFailures) })
	bind.gauge("fcm_poller_state",
		"Poller health: 0 healthy, 1 degraded, 2 down.",
		func() float64 { return float64(p.Stats().State) })
	bind.gauge("fcm_poller_convergence_lag_seconds",
		"Seconds since this poller last delivered a snapshot.",
		p.ConvergenceLag)
	for st := Healthy; st <= Down; st++ {
		st := st
		stateLabel := `state="` + st.String() + `"`
		if labels != "" {
			stateLabel = labels + "," + stateLabel
		}
		reg.CounterFuncL("fcm_poller_transitions_total", stateLabel,
			"Health-state entries by target state.",
			func() float64 { return float64(p.Stats().TransitionsTo[st]) })
	}
}

// statBinder registers labeled or unlabeled Func series depending on
// whether a label set was supplied.
type statBinder struct {
	reg    *telemetry.Registry
	labels string
}

func (b statBinder) counter(name, help string, f func() float64) {
	if b.labels == "" {
		b.reg.CounterFunc(name, help, f)
	} else {
		b.reg.CounterFuncL(name, b.labels, help, f)
	}
}

func (b statBinder) gauge(name, help string, f func() float64) {
	if b.labels == "" {
		b.reg.GaugeFunc(name, help, f)
	} else {
		b.reg.GaugeFuncL(name, b.labels, help, f)
	}
}
