// Command fcmctl is the control-plane collector: it dials a running
// fcmswitch, pulls the FCM-Sketch registers in batch, converts them to
// virtual counters and runs the EM estimator — printing cardinality, the
// estimated flow-size distribution head, and entropy (§4).
//
// Collection is hardened for real networks: per-operation I/O deadlines,
// and (for the idempotent register read) automatic reconnect with capped
// exponential backoff. With -poll the collector runs the periodic loop of
// §4.4 instead of a one-shot read, tracking the switch's health
// (healthy/degraded/down) and reporting windows that were skipped while it
// was unreachable.
//
// Usage:
//
//	fcmctl -connect 127.0.0.1:9401
//	fcmctl -connect 127.0.0.1:9401 -iters 10 -reset
//	fcmctl -connect 127.0.0.1:9401 -poll 5s -reset -retries 2
//	fcmctl -metrics 127.0.0.1:9402
//	fcmctl -traces 127.0.0.1:9402
//	fcmctl -insight 127.0.0.1:9402
//	fcmctl -over-time 127.0.0.1:9412 -lookback 8
//	fcmctl -over-time 127.0.0.1:9412 -lookback 1m -key 0a000001 -em 5
//
// With -metrics it scrapes a switch's telemetry endpoint instead of its
// registers: the /healthz identity line followed by every metric series,
// pretty-printed for humans (ci scripts grep the raw series names).
// With -traces it renders the endpoint's flight-recorder traces slowest
// first with delta fallback reasons highlighted; with -insight it renders
// the live accuracy self-report (error bounds, cardinality validity,
// saturation forecast) of a switch or a whole aggregated fleet.
// With -over-time it queries a windowed endpoint's sliding-window ring
// (/debug/overtime): -lookback selects the trailing history as a window
// count ("8") or duration ("1m"), -key adds a per-flow estimate, -em adds
// the EM entropy and flow-size distribution over exactly that span.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/fcmsketch/fcm"
	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/em"
	"github.com/fcmsketch/fcm/internal/insight"
	"github.com/fcmsketch/fcm/internal/telemetry"
	"github.com/fcmsketch/fcm/internal/telemetry/tracing"
	"github.com/fcmsketch/fcm/internal/window"
)

func main() {
	var (
		addr     = flag.String("connect", "127.0.0.1:9401", "fcmswitch collection address")
		iters    = flag.Int("iters", 5, "EM iterations")
		workers  = flag.Int("workers", 0, "EM worker goroutines (0 = all cores)")
		reset    = flag.Bool("reset", false, "reset the data plane after collecting (window rotation)")
		head     = flag.Int("head", 10, "print the first N sizes of the estimated distribution")
		dialTO   = flag.Duration("timeout", 5*time.Second, "connection dial timeout")
		ioTO     = flag.Duration("io-timeout", 5*time.Second, "per-read/write deadline on the wire")
		retries  = flag.Int("retries", 2, "extra attempts for the register read (reconnect + backoff)")
		delta    = flag.Bool("delta", false, "use the codec v3 delta protocol: after the first full snapshot only changed registers cross the wire")
		poll     = flag.Duration("poll", 0, "collect repeatedly at this interval instead of once")
		metrics  = flag.String("metrics", "", "scrape and pretty-print a telemetry endpoint (host:port) instead of collecting")
		traces   = flag.String("traces", "", "fetch a telemetry endpoint's flight-recorder traces (/debug/traces), slowest first, fallback reasons highlighted")
		insights = flag.String("insight", "", "fetch a telemetry endpoint's live accuracy self-report (/debug/insight)")
		overTime = flag.String("over-time", "", "query a windowed telemetry endpoint's over-time ring (/debug/overtime)")
		lookback = flag.String("lookback", "0", "over-time lookback: a window count (\"8\", 0 = all) or a duration (\"90s\")")
		keyHex   = flag.String("key", "", "over-time: also estimate this hex-encoded flow key over the lookback")
		emOver   = flag.Int("em", 0, "over-time: run N EM iterations for entropy + FSD over the lookback (0 = skip)")
		logLevel = flag.String("log-level", "warn", "log verbosity in -poll mode: debug | info | warn | error")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("fcmctl " + telemetry.Build().String())
		return
	}
	if *metrics != "" {
		if err := scrapeMetrics(os.Stdout, *metrics); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *traces != "" {
		if err := showTraces(os.Stdout, *traces); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *insights != "" {
		if err := showInsight(os.Stdout, *insights); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *overTime != "" {
		if err := showOverTime(os.Stdout, *overTime, *lookback, *keyHex, *emOver); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *poll > 0 {
		level, err := telemetry.ParseLevel(*logLevel)
		if err != nil {
			fatalf("%v", err)
		}
		runPoller(*addr, *poll, *ioTO, *retries, *reset, *delta,
			telemetry.NewLogger(os.Stderr, level, false))
		return
	}

	cl, err := collect.NewClient(collect.ClientConfig{
		Addr:        *addr,
		DialTimeout: *dialTO,
		IOTimeout:   *ioTO,
		MaxRetries:  *retries,
		Delta:       *delta,
	})
	if err != nil {
		fatalf("%v", err)
	}
	defer cl.Close()

	start := time.Now()
	snap, err := cl.ReadSketch()
	if err != nil {
		fatalf("reading sketch: %v", err)
	}
	if st := cl.Stats(); st.Retries > 0 {
		fmt.Fprintf(os.Stderr, "fcmctl: read needed %d retries over %d dials\n", st.Retries, st.Dials)
	}
	fmt.Printf("collected %d-tree %d-ary sketch (w1=%d) in %s\n",
		snap.Trees, snap.K, snap.W1, time.Since(start).Round(time.Millisecond))

	report(snap, *iters, *workers, *head)

	if *reset {
		if err := cl.ResetSketch(); err != nil {
			fatalf("reset: %v", err)
		}
		fmt.Println("data plane reset for the next window")
	}
}

// runPoller is the -poll mode: the §4.4 periodic collection loop with
// health tracking and skipped-window reporting. It runs until SIGINT or
// SIGTERM.
func runPoller(addr string, interval, timeout time.Duration, retries int, reset, delta bool, logger *slog.Logger) {
	logger.Info("fcmctl poller starting", telemetry.Build().LogGroup(), "addr", addr)
	p, err := collect.NewPoller(collect.PollerConfig{
		Addr:     addr,
		Interval: interval,
		Timeout:  timeout,
		Retries:  retries,
		Reset:    reset,
		Delta:    delta,
		Logger:   logger,
		OnWindow: func(snap *collect.Snapshot, skipped int) {
			sk, err := snap.Restore(nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fcmctl: restoring window: %v\n", err)
				return
			}
			note := ""
			if skipped > 0 {
				note = fmt.Sprintf(" (folds %d skipped windows)", skipped)
			}
			fmt.Printf("%s window: cardinality %.0f%s\n",
				time.Now().Format(time.TimeOnly), sk.Cardinality(), note)
		},
		OnError: func(err error) {
			fmt.Fprintf(os.Stderr, "fcmctl: collection failed: %v\n", err)
		},
		OnStateChange: func(from, to collect.State) {
			fmt.Fprintf(os.Stderr, "fcmctl: switch %s: %s -> %s\n", addr, from, to)
		},
	})
	if err != nil {
		fatalf("%v", err)
	}
	if err := p.Start(); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("polling %s every %s; SIGINT to stop\n", addr, interval)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	p.Stop()
	st := p.Stats()
	fmt.Printf("stopped: %d windows collected, %d failures, %d skipped windows, final state %s\n",
		st.Collected, st.Failed, st.SkippedWindows, st.State)
}

// report runs the control-plane estimators over a collected snapshot.
func report(snap *collect.Snapshot, iters, workers, head int) {
	sk, err := snap.Restore(nil)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("cardinality (linear counting): %.0f\n", sk.Cardinality())

	vcs := sk.VirtualCounters()
	start := time.Now()
	res, err := em.Run(em.Config{
		W1:         snap.W1,
		Theta1:     sk.StageMax(0),
		Iterations: iters,
		Workers:    workers,
	}, vcs)
	if err != nil {
		fatalf("EM: %v", err)
	}
	fmt.Printf("EM (%d iterations) in %s: %.0f flows estimated\n",
		res.Iterations, time.Since(start).Round(time.Millisecond), res.N)

	fmt.Println("flow size distribution (head):")
	for size := 1; size <= head && size < len(res.Dist); size++ {
		fmt.Printf("  size %3d: %10.1f flows\n", size, res.Dist[size])
	}
	h := fcm.EntropyOf(res.Dist)
	if !math.IsNaN(h) {
		fmt.Printf("entropy estimate: %.4f bits\n", h)
	}
}

// scrapeMetrics pulls /healthz and /metrics from a telemetry endpoint and
// renders them: one identity line, then every series grouped by family.
// Series lines keep their exact exposition-format form at the start of the
// line so scripts can grep them.
func scrapeMetrics(w io.Writer, addr string) error {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	cl := &http.Client{Timeout: 10 * time.Second}

	var health telemetry.Health
	if err := getJSON(cl, base+"/healthz", &health); err != nil {
		return fmt.Errorf("scraping %s/healthz: %w", base, err)
	}
	fmt.Fprintf(w, "status=%s component=%s uptime=%s version=%s revision=%s go=%s\n",
		health.Status, health.Component,
		(time.Duration(health.UptimeSeconds * float64(time.Second))).Round(time.Millisecond),
		health.Build.Version, health.Build.Short(), health.Build.GoVersion)
	if len(health.Extra) > 0 {
		keys := make([]string, 0, len(health.Extra))
		for k := range health.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %s=%v", k, health.Extra[k])
		}
		fmt.Fprintln(w)
	}

	resp, err := cl.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("scraping %s/metrics: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scraping %s/metrics: HTTP %d", base, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			// The help text becomes the family's heading comment.
			fmt.Fprintf(w, "# %s\n", strings.SplitN(line, " ", 4)[3])
		case strings.HasPrefix(line, "# TYPE "):
		default:
			fmt.Fprintln(w, line)
		}
	}
	return nil
}

// baseURL normalizes a host:port telemetry address into an http URL.
func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return addr
	}
	return "http://" + addr
}

// showTraces is the -traces subcommand: it pulls /debug/traces and
// renders the retained traces slowest first, then summarizes the delta
// fallback reasons seen across them — the first thing to look at when a
// fleet's wire bytes jump.
func showTraces(w io.Writer, addr string) error {
	base := baseURL(addr)
	cl := &http.Client{Timeout: 10 * time.Second}
	var ex tracing.Export
	if err := getJSON(cl, base+"/debug/traces", &ex); err != nil {
		return fmt.Errorf("fetching %s/debug/traces: %w", base, err)
	}
	tracing.WriteText(w, ex)

	// Highlight fallback reasons: any span annotated fallback=<reason>
	// marks a poll that degraded from a delta to a full snapshot.
	reasons := map[string]int{}
	for _, t := range ex.Traces {
		for _, sp := range t.Spans {
			if r, ok := sp.Attrs["fallback"]; ok {
				reasons[r]++
			}
		}
	}
	if len(reasons) > 0 {
		keys := make([]string, 0, len(reasons))
		for k := range reasons {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "FALLBACKS (delta degraded to full snapshot):\n")
		for _, k := range keys {
			fmt.Fprintf(w, "  %-20s %d trace(s)\n", k, reasons[k])
		}
	}
	return nil
}

// showInsight is the -insight subcommand: it pulls /debug/insight and
// renders the accuracy self-report — a fleet rollup when the endpoint is
// an aggregator, a single report when it is a switch.
func showInsight(w io.Writer, addr string) error {
	base := baseURL(addr)
	cl := &http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get(base + "/debug/insight")
	if err != nil {
		return fmt.Errorf("fetching %s/debug/insight: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetching %s/debug/insight: HTTP %d", base, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var fleet insight.FleetReport
	if err := json.Unmarshal(body, &fleet); err != nil {
		return fmt.Errorf("decoding insight report: %w", err)
	}
	if fleet.Region != nil || len(fleet.Members) > 0 {
		insight.WriteFleetText(w, fleet)
		return nil
	}
	var rep insight.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("decoding insight report: %w", err)
	}
	insight.WriteText(w, rep)
	return nil
}

// showOverTime is the -over-time subcommand: it queries /debug/overtime
// on a windowed endpoint (an fcmagg started with -window) and renders the
// coverage the ring actually folded, the answers, and the ring occupancy.
func showOverTime(w io.Writer, addr, lookback, keyHex string, emIters int) error {
	base := baseURL(addr)
	q := url.Values{}
	if d, err := time.ParseDuration(lookback); err == nil {
		q.Set("duration", d.String())
	} else if n, err := strconv.Atoi(lookback); err == nil && n >= 0 {
		if n > 0 {
			q.Set("windows", strconv.Itoa(n))
		}
	} else {
		return fmt.Errorf("bad -lookback %q: want a window count or a duration", lookback)
	}
	if keyHex != "" {
		if _, err := hex.DecodeString(keyHex); err != nil {
			return fmt.Errorf("bad -key hex: %w", err)
		}
		q.Set("key", keyHex)
	}
	if emIters > 0 {
		q.Set("em", strconv.Itoa(emIters))
	}
	cl := &http.Client{Timeout: 30 * time.Second}
	var resp window.QueryResponse
	if err := getJSON(cl, base+"/debug/overtime?"+q.Encode(), &resp); err != nil {
		return fmt.Errorf("querying %s/debug/overtime: %w", base, err)
	}

	cov := resp.Coverage
	live := ""
	if cov.IncludesLive {
		live = " + live"
	}
	fmt.Fprintf(w, "coverage: %d windows in %d buckets%s, generations [%d,%d], %d packets\n",
		cov.Windows, cov.Buckets, live, cov.FirstGeneration, cov.LastGeneration, cov.Packets)
	if !cov.From.IsZero() {
		fmt.Fprintf(w, "span: %s .. %s (%s)\n",
			cov.From.Format(time.TimeOnly), cov.To.Format(time.TimeOnly),
			cov.To.Sub(cov.From).Round(time.Second))
	}
	fmt.Fprintf(w, "cardinality (linear counting): %.0f\n", resp.Cardinality)
	if resp.Estimate != nil {
		fmt.Fprintf(w, "flow %s: %d packets over the lookback\n", resp.Key, *resp.Estimate)
	}
	if resp.Entropy != nil {
		fmt.Fprintf(w, "entropy estimate: %.4f bits\n", *resp.Entropy)
		fmt.Fprintln(w, "flow size distribution (head):")
		for size := 1; size < len(resp.FSDHead); size++ {
			fmt.Fprintf(w, "  size %3d: %10.1f flows\n", size, resp.FSDHead[size])
		}
	}
	if len(resp.Buckets) > 0 {
		fmt.Fprintf(w, "ring: %d buckets\n", len(resp.Buckets))
		for _, b := range resp.Buckets {
			fmt.Fprintf(w, "  level %d  span %3d  generations [%d,%d]  %d packets\n",
				b.Level, b.Span, b.FirstGeneration, b.Generation, b.Packets)
		}
	}
	return nil
}

func getJSON(cl *http.Client, url string, v any) error {
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fcmctl: "+format+"\n", args...)
	os.Exit(1)
}
