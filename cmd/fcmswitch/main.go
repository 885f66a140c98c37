// Command fcmswitch runs the simulated PISA switch: it replays a trace
// through the compiled FCM data plane, prints the pipeline's resource
// allocation, and serves the sketch registers over TCP for a control-plane
// collector (see cmd/fcmctl for the collector side).
//
// With -shards N the FCM program replays through the sharded concurrent
// ingest engine: N writer goroutines each own one shard, and collection
// serves exact-merge snapshots that are bit-identical to a serial replay —
// per the paper's §5 merge property. Collection never blocks ingest: a
// shard is locked only while its registers are copied.
//
// Usage:
//
//	fcmswitch -pcap trace.pcap -listen 127.0.0.1:9401
//	fcmswitch -packets 1000000 -program fcm -shards 4 -listen 127.0.0.1:9401
//	fcmswitch -packets 1000000 -program fcm+topk -mem 1300000
//	fcmswitch -listen 127.0.0.1:9401 -telemetry-addr 127.0.0.1:9402
//
// With -telemetry-addr the switch serves live introspection over HTTP:
// /metrics (Prometheus text or ?format=json), /healthz (build + config),
// and /debug/pprof. The sketch's self-telemetry — per-level occupancy,
// overflow promotions, saturations, per-shard ingest rates, snapshot and
// rotation latency — is computed lock-free on the hot path and scanned at
// scrape time.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/engine"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/insight"
	"github.com/fcmsketch/fcm/internal/packet"
	"github.com/fcmsketch/fcm/internal/pisa"
	"github.com/fcmsketch/fcm/internal/telemetry"
	"github.com/fcmsketch/fcm/internal/telemetry/tracing"
	"github.com/fcmsketch/fcm/internal/trace"
)

func main() {
	var (
		pcapPath = flag.String("pcap", "", "replay this pcap file (otherwise synthesize)")
		packets  = flag.Int("packets", 1_000_000, "synthetic packet count when no pcap is given")
		seed     = flag.Int64("seed", 1, "synthetic trace seed")
		program  = flag.String("program", "fcm", "data plane: fcm | fcm+topk | cm+topk")
		mem      = flag.Int("mem", 1_300_000, "sketch memory in bytes (paper hardware: 1.3MB)")
		shards   = flag.Int("shards", 1, "concurrent ingest shards (fcm program only; exact merge keeps results bit-identical)")
		listen   = flag.String("listen", "", "serve sketch registers on this TCP address")
		readTO   = flag.Duration("read-timeout", 10*time.Second, "collection server per-frame read deadline")
		writeTO  = flag.Duration("write-timeout", 10*time.Second, "collection server per-frame write deadline")
		idleTO   = flag.Duration("idle-timeout", 2*time.Minute, "close collection connections idle this long")
		maxConns = flag.Int("max-conns", 64, "max simultaneous collection connections (excess connections are rejected and counted)")
		maxSess  = flag.Int("max-sessions", 64, "max tracked codec v3 delta sessions (LRU-evicted beyond this; an evicted collector just gets one full snapshot)")
		hhThresh = flag.Uint64("hh", 0, "print heavy hitters at this threshold (TopK programs)")
		emitP4   = flag.Bool("emit-p4", false, "print the generated P4 program for the FCM geometry and exit")
		telAddr  = flag.String("telemetry-addr", "", "serve /metrics, /healthz, /debug/pprof, /debug/traces and /debug/insight on this HTTP address")
		flightOn = flag.Bool("flight-recorder", true, "capture flight-recorder traces of collection requests (served at /debug/traces)")
		logLevel = flag.String("log-level", "info", "log verbosity: debug | info | warn | error")
		logJSON  = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	flag.Parse()

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fatalf("%v", err)
	}
	logger := telemetry.NewLogger(os.Stderr, level, *logJSON)
	logger.Info("fcmswitch starting", telemetry.Build().LogGroup(),
		"program", *program, "shards", *shards, "mem", *mem)

	var prog pisa.Program
	switch *program {
	case "fcm":
		prog = pisa.ProgramFCM
	case "fcm+topk":
		prog = pisa.ProgramFCMTopK
	case "cm+topk":
		prog = pisa.ProgramCMTopK
	default:
		fatalf("unknown program %q", *program)
	}
	if *shards < 1 {
		fatalf("-shards must be ≥ 1, got %d", *shards)
	}
	if *shards > 1 && prog != pisa.ProgramFCM {
		fatalf("-shards applies to the fcm program only (TopK filters are single-writer)")
	}

	sw, err := pisa.NewSwitch(pisa.SwitchConfig{Program: prog, MemoryBytes: *mem})
	if err != nil {
		fatalf("%v", err)
	}
	if *emitP4 {
		if sw.Sketch() == nil {
			fatalf("-emit-p4 requires an FCM program")
		}
		src, err := pisa.GenerateP4(pisa.FCMGeometry{
			Trees:     sw.Sketch().NumTrees(),
			K:         sw.Sketch().K(),
			LeafWidth: sw.Sketch().LeafWidth(),
			Widths:    sw.Sketch().Widths(),
		})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(src)
		return
	}
	printAllocation(sw.Allocation())

	tr, err := loadTrace(*pcapPath, *packets, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("replaying %d packets / %d flows through %s...\n",
		tr.NumPackets(), tr.NumFlows(), sw.Allocation().Name)

	// Pick the data-plane source: a sharded engine for the plain FCM
	// program, a locked single-writer sketch otherwise. Both serve
	// copy-on-read snapshots, so collection never holds a lock across an
	// encode or a network write.
	var src collect.Source
	var eng *engine.Engine
	var locked *collect.LockedSketch
	if prog == pisa.ProgramFCM {
		eng, err = shardedEngine(sw, *shards, 0)
		if err != nil {
			fatalf("%v", err)
		}
		src = eng
	} else if sw.Sketch() != nil {
		locked = collect.NewLockedSketch(sw.Sketch())
		src = locked
	}

	// The flight recorder is nil-safe end to end: with -flight-recorder
	// =false the recorder stays disabled and every span call no-ops.
	recorder := tracing.NewRecorder(tracing.RecorderConfig{})
	recorder.SetEnabled(*flightOn)

	var srv *collect.Server
	if *listen != "" && src != nil {
		srv, err = collect.NewServerConfig(*listen, src, collect.ServerConfig{
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
		fmt.Printf("serving registers on %s\n", srv.Addr())
	}

	// Live introspection: registry + HTTP endpoints, wired before the
	// replay so ingest runs fully instrumented.
	if *telAddr != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterProcessMetrics(reg)
		telemetry.RegisterBuildInfo(reg, telemetry.Build())
		recorder.Instrument(reg)
		var prober *insight.Prober
		switch {
		case eng != nil:
			prober = eng.Instrument(reg)
		case locked != nil:
			prober = engine.InstrumentSketch(reg, sw.Sketch(), func() *core.Sketch {
				sk, _ := locked.Snapshot()
				return sk
			})
		}
		if srv != nil {
			srv.Instrument(reg, "")
		}
		mux := telemetry.NewMux(reg, "fcmswitch", func() map[string]any {
			extra := map[string]any{
				"program": *program,
				"shards":  *shards,
			}
			if srv != nil {
				extra["collect_addr"] = srv.Addr()
				st := srv.Stats()
				extra["collect_reads"] = st.DeltaReads
				extra["collect_conns"] = st.Conns
			}
			return extra
		}, "/debug/traces", "/debug/insight")
		mux.Handle("/debug/traces", recorder)
		if prober != nil {
			mux.Handle("/debug/insight", insight.Handler(prober))
		}
		addr, shutdownTel, err := telemetry.Serve(*telAddr, mux)
		if err != nil {
			fatalf("%v", err)
		}
		defer shutdownTel() //nolint:errcheck // exiting anyway
		fmt.Printf("telemetry on %s\n", addr)
		logger.Info("telemetry endpoints up", "addr", addr)
	}

	switch {
	case eng != nil:
		replaySharded(tr, eng)
		// Fold the merged shards back into the switch's own sketch so the
		// data-plane reports below read the same registers a serial replay
		// would have produced (exact merge ⇒ bit-identical).
		merged, _ := eng.Snapshot()
		if err := sw.Sketch().CopyFrom(merged); err != nil {
			fatalf("%v", err)
		}
	case locked != nil && (srv != nil || *telAddr != ""):
		// Concurrent readers exist (collection or telemetry scrapes):
		// updates must serialize against snapshot copies.
		tr.ForEachPacket(func(_ int, key []byte) {
			locked.Lock()
			sw.Update(key, 1)
			locked.Unlock()
		})
	default:
		tr.ForEachPacket(func(_ int, key []byte) { sw.Update(key, 1) })
	}
	fmt.Println("replay done")

	if card, err := sw.Cardinality(); err == nil {
		fmt.Printf("data-plane cardinality (TCAM): %.0f (true %d)\n", card, tr.NumFlows())
	}
	if *hhThresh > 0 {
		hh := sw.HeavyHitters(*hhThresh)
		fmt.Printf("heavy hitters ≥ %d: %d flows\n", *hhThresh, len(hh))
	}

	if srv != nil || *telAddr != "" {
		fmt.Println("replay complete; serving until SIGINT/SIGTERM")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		if srv != nil {
			srv.Close() //nolint:errcheck // exiting anyway
		}
	}
}

// shardedEngine builds an ingest engine whose shards replicate the
// switch's FCM geometry and hash family, so the exact merge of the shards
// is bit-identical to the switch's own sketch fed serially.
func shardedEngine(sw *pisa.Switch, shards int, seed uint32) (*engine.Engine, error) {
	sk := sw.Sketch()
	return engine.New(engine.Config{
		Shards: shards,
		Build: func() (*core.Sketch, error) {
			return core.New(core.Config{
				K:         sk.K(),
				Trees:     sk.NumTrees(),
				Widths:    sk.Widths(),
				LeafWidth: sk.LeafWidth(),
				Hash:      hashing.DataPlaneFamily(seed),
			})
		},
	})
}

// replaySharded splits the replay across one writer goroutine per shard,
// each replaying a contiguous slice of the trace in batches through
// Engine.UpdateBatch (one lock per batch, on the first free shard). The
// packet partition is arbitrary — the exact merge makes the result
// independent of which shard absorbed which packet.
func replaySharded(tr *trace.Trace, eng *engine.Engine) {
	n := eng.NumShards()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		sub := &trace.Trace{Keys: tr.Keys, Order: tr.Order[w*len(tr.Order)/n : (w+1)*len(tr.Order)/n]}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Label the writer so CPU/goroutine profiles attribute ingest
			// cost per writer (pprof label sets survive into the profile).
			pprof.Do(context.Background(),
				pprof.Labels("subsystem", "engine", "op", "batch_writer", "writer", fmt.Sprint(w)),
				func(context.Context) {
					trace.NewBatchReplayer(256).Replay(sub, eng)
				})
		}(w)
	}
	wg.Wait()
}

// loadTrace reads a pcap or synthesizes a CAIDA-like trace.
func loadTrace(path string, packets int, seed int64) (*trace.Trace, error) {
	if path == "" {
		return trace.CAIDALike(packets, seed)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, skipped, err := trace.ReadPcap(f, packet.KeySrcIP)
	if err != nil {
		return nil, err
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "warning: skipped %d unparseable frames\n", skipped)
	}
	return tr, nil
}

// printAllocation renders the compiled pipeline placement.
func printAllocation(a *pisa.Allocation) {
	fmt.Printf("%s compiled to %d physical stages\n", a.Name, a.NumStages())
	u := a.Utilization()
	names := make([]string, 0, len(u))
	for n := range u {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-14s %6.2f%%\n", n, u[n]*100)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fcmswitch: "+format+"\n", args...)
	os.Exit(1)
}
