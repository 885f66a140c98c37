// Command fcmagg runs the middle tier of a collection tree: it polls a
// region of fcmswitch instances (staggered over the interval, fan-in
// bounded, codec v3 deltas), keeps each member's latest sketch restored
// with the data plane's hash family, and serves the exact merge of the
// region on its own collection address — so a controller polls one
// aggregator instead of N switches, and can itself collect deltas of the
// merged state.
//
// The tree is lossless: FCM merge is exact, commutative and associative,
// so aggregating per region and merging regions at the controller is
// register-bit-identical to merging every switch flat. If an aggregator
// dies, the controller re-homes its members (their addresses are in the
// aggregator's /healthz) and the numbers cannot change — only the
// collection path does.
//
// With -window the aggregator also keeps a sliding-window ring over
// collection rounds: members are polled in reset mode (each snapshot is
// one interval's traffic), each round's newly arrived snapshots are merged
// and filed as one window (a snapshot joins exactly one window, so members
// that miss a poll are never double-counted), and /debug/overtime on the
// required telemetry address answers
// over-time queries — per-key counts, cardinality, entropy and flow-size
// distribution over any lookback — plus FCMW window-frame export.
//
// Usage:
//
//	fcmagg -members 10.0.0.1:9401,10.0.0.2:9401 -listen 127.0.0.1:9411
//	fcmagg -members @region0.txt -interval 5s -max-in-flight 8
//	fcmagg -members ... -listen :9411 -telemetry-addr :9412
//	fcmagg -members ... -telemetry-addr :9412 -window -window-buckets 512
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/insight"
	"github.com/fcmsketch/fcm/internal/telemetry"
	"github.com/fcmsketch/fcm/internal/telemetry/tracing"
	"github.com/fcmsketch/fcm/internal/window"
)

func main() {
	var (
		members  = flag.String("members", "", "comma-separated member switch addresses, or @file with one address per line (required)")
		interval = flag.Duration("interval", 5*time.Second, "member collection period (first collections are staggered across one interval)")
		timeout  = flag.Duration("timeout", 0, "per-member I/O deadline (default: the interval)")
		retries  = flag.Int("retries", 1, "extra in-collect attempts per member read")
		inFlight = flag.Int("max-in-flight", 8, "max concurrent member collections (fan-in bound)")
		jitter   = flag.Int64("jitter-seed", 1, "stagger jitter seed (decorrelates aggregators sharing an interval)")
		listen   = flag.String("listen", "", "serve the merged region's registers on this TCP address")
		readTO   = flag.Duration("read-timeout", 10*time.Second, "collection server per-frame read deadline")
		writeTO  = flag.Duration("write-timeout", 10*time.Second, "collection server per-frame write deadline")
		idleTO   = flag.Duration("idle-timeout", 2*time.Minute, "close collection connections idle this long")
		maxConns = flag.Int("max-conns", 64, "max simultaneous collection connections (excess rejected and counted)")
		maxSess  = flag.Int("max-sessions", 64, "max tracked codec v3 delta sessions (LRU-evicted beyond this)")
		telAddr  = flag.String("telemetry-addr", "", "serve /metrics, /healthz, /debug/pprof, /debug/traces and /debug/insight on this HTTP address")
		windowed = flag.Bool("window", false, "file each collection round's merged region sketch into a sliding-window ring and serve over-time queries on /debug/overtime (forces reset-mode member polls)")
		winMax   = flag.Int("window-buckets", 256, "over-time ring: windows of history retained (older rounds coarsen into wider buckets, then drop)")
		winSpan  = flag.Int("window-span-cap", 3, "over-time ring: buckets per coarsening level before two merge into the next (1 = most aggressive)")
		flightOn = flag.Bool("flight-recorder", true, "capture flight-recorder traces of member polls and serve requests (/debug/traces)")
		logLevel = flag.String("log-level", "info", "log verbosity: debug | info | warn | error")
		logJSON  = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("fcmagg " + telemetry.Build().String())
		return
	}
	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fatalf("%v", err)
	}
	logger := telemetry.NewLogger(os.Stderr, level, *logJSON)

	if *windowed && *telAddr == "" {
		fatalf("-window requires -telemetry-addr: over-time queries are only served on /debug/overtime, so a ring without a telemetry address would retain history nothing can read")
	}

	addrs, err := parseMembers(*members)
	if err != nil {
		fatalf("%v", err)
	}
	recorder := tracing.NewRecorder(tracing.RecorderConfig{})
	recorder.SetEnabled(*flightOn)

	cfg := aggregatorConfig(addrs, *interval, *timeout, *retries, *inFlight, *jitter, *windowed)
	cfg.Logger = logger
	cfg.Tracer = recorder
	cfg.OnMemberState = func(addr string, from, to collect.State) {
		fmt.Fprintf(os.Stderr, "fcmagg: member %s: %s -> %s\n", addr, from, to)
	}
	agg, err := collect.NewAggregator(cfg)
	if err != nil {
		fatalf("%v", err)
	}

	// The over-time ring files one window per collection round, fed by
	// DrainRound so every member snapshot lands in exactly one window —
	// a member that misses a poll contributes nothing that round, not its
	// previous (already filed) snapshot again.
	var ring *window.Ring
	if *windowed {
		ring = window.NewCollector(window.Config{
			BucketDuration: *interval,
			MaxWindows:     *winMax,
			SpanCap:        *winSpan,
		})
	}

	var srv *collect.Server
	if *listen != "" {
		srv, err = collect.NewServerConfig(*listen, agg, collect.ServerConfig{
			ReadTimeout:  *readTO,
			WriteTimeout: *writeTO,
			IdleTimeout:  *idleTO,
			MaxConns:     *maxConns,
			MaxSessions:  *maxSess,
			Logger:       logger,
			Tracer:       recorder,
		})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("serving merged region on %s\n", srv.Addr())
	}

	if *telAddr != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterProcessMetrics(reg)
		telemetry.RegisterBuildInfo(reg, telemetry.Build())
		agg.Instrument(reg, "")
		recorder.Instrument(reg)
		if srv != nil {
			srv.Instrument(reg, "")
		}
		if ring != nil {
			ring.Instrument(reg)
		}
		mux := telemetry.NewMux(reg, "fcmagg", func() map[string]any {
			st := agg.Stats()
			extra := map[string]any{
				"members":           strings.Join(agg.MemberAddrs(), ","),
				"members_reporting": st.MembersReporting,
				"generation":        st.Generation,
			}
			if srv != nil {
				extra["collect_addr"] = srv.Addr()
			}
			return extra
		}, telemetryPaths(ring != nil)...)
		mux.Handle("/debug/traces", recorder)
		mux.Handle("/debug/insight", insight.FleetHandler(agg.InsightReport))
		if ring != nil {
			mux.Handle("/debug/overtime", window.Handler(ring))
		}
		addr, shutdownTel, err := telemetry.Serve(*telAddr, mux)
		if err != nil {
			fatalf("%v", err)
		}
		defer shutdownTel() //nolint:errcheck // exiting anyway
		fmt.Printf("telemetry on %s\n", addr)
	}

	logger.Info("fcmagg starting", telemetry.Build().LogGroup(),
		"members", len(addrs), "interval", *interval)
	if err := agg.Start(); err != nil {
		fatalf("%v", err)
	}
	var stopFiling chan struct{}
	if ring != nil {
		stopFiling = make(chan struct{})
		go fileRounds(ring, agg, *interval, stopFiling, logger)
		fmt.Printf("over-time ring enabled: %d windows of %s history, span cap %d\n",
			*winMax, *interval, *winSpan)
	}
	fmt.Printf("aggregating %d members every %s; SIGINT to stop\n", len(addrs), *interval)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	if stopFiling != nil {
		close(stopFiling)
	}
	agg.Stop()
	if srv != nil {
		srv.Close() //nolint:errcheck // exiting anyway
	}
	st := agg.Stats()
	fmt.Printf("stopped: %d/%d members reporting, %d member snapshots folded, %d merges served\n",
		st.MembersReporting, st.Members, st.MemberSnapshots, st.Merges)
	if fr := agg.InsightReport(); len(fr.Members) > 0 {
		fmt.Println()
		insight.WriteFleetText(os.Stdout, fr)
	}
}

// aggregatorConfig builds the aggregator's collection configuration from
// the member addresses and flag values. Member sketches are restored with
// the data plane's hash family (fcmswitch hashes with seed 0), so per-flow
// answers from the merged region and the over-time ring count the same
// counters the switches incremented.
func aggregatorConfig(addrs []string, interval, timeout time.Duration, retries, maxInFlight int, jitterSeed int64, windowed bool) collect.AggregatorConfig {
	members := make([]collect.PollerConfig, len(addrs))
	for i, a := range addrs {
		// Windowed aggregation needs per-interval member snapshots: reset
		// mode rotates each switch after a successful read, so the next
		// read is exactly one round's traffic.
		members[i] = collect.PollerConfig{Addr: a, Reset: windowed}
	}
	return collect.AggregatorConfig{
		Members:     members,
		Interval:    interval,
		Timeout:     timeout,
		Retries:     retries,
		MaxInFlight: maxInFlight,
		JitterSeed:  jitterSeed,
		TrackRounds: windowed,
		Family:      hashing.DataPlaneFamily(0),
	}
}

// telemetryPaths lists the extra mux paths /healthz advertises, with the
// over-time endpoint included only when the ring is enabled.
func telemetryPaths(overtime bool) []string {
	paths := []string{"/debug/traces", "/debug/insight"}
	if overtime {
		paths = append(paths, "/debug/overtime")
	}
	return paths
}

// fileRounds files one window per collection round into the over-time
// ring: each tick drains the member snapshots absorbed since the last tick
// (reset-mode, so each is one interval's traffic) and appends their exact
// merge as the round's window. DrainRound folds each snapshot exactly
// once, so a member whose poll failed this round is simply absent — its
// previous snapshot is not re-filed, which would double-count its traffic
// in every over-time answer. Rounds where no member reported file nothing;
// the next filed window's time span covers the gap, so Coverage stays
// honest.
func fileRounds(ring *window.Ring, agg *collect.Aggregator, interval time.Duration, stop <-chan struct{}, logger *slog.Logger) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	lastTime := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		if fileRound(ring, agg, lastTime, now, logger) {
			lastTime = now
		}
	}
}

// fileRound drains the member snapshots absorbed since the last round and
// files their exact merge as one window spanning [from, to]. It reports
// whether anything was drained: the drained snapshots are consumed even
// when the ring rejects the round (geometry drift mid-reconfiguration),
// since retrying them later would double-count once the ring accepts
// again.
func fileRound(ring *window.Ring, agg *collect.Aggregator, from, to time.Time, logger *slog.Logger) bool {
	sk := agg.DrainRound()
	if sk == nil {
		return false
	}
	if err := ring.FileWindow(sk, from, to, sk.TotalCount(0)); err != nil {
		logger.Warn("over-time ring rejected round", "err", err)
	}
	return true
}

// parseMembers expands the -members flag: a comma-separated list, or
// @path naming a file with one address per line (# comments allowed).
func parseMembers(spec string) ([]string, error) {
	if spec == "" {
		return nil, fmt.Errorf("-members is required")
	}
	var raw []string
	if strings.HasPrefix(spec, "@") {
		data, err := os.ReadFile(spec[1:])
		if err != nil {
			return nil, fmt.Errorf("reading member file: %w", err)
		}
		raw = strings.Split(string(data), "\n")
	} else {
		raw = strings.Split(spec, ",")
	}
	addrs := make([]string, 0, len(raw))
	for _, a := range raw {
		a = strings.TrimSpace(a)
		if a == "" || strings.HasPrefix(a, "#") {
			continue
		}
		addrs = append(addrs, a)
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("no member addresses in %q", spec)
	}
	return addrs, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fcmagg: "+format+"\n", args...)
	os.Exit(1)
}
