// Command fcmbench regenerates the tables and figures of the FCM-Sketch
// paper's evaluation (§7 and §8).
//
// Usage:
//
//	fcmbench -list
//	fcmbench -run fig6
//	fcmbench -run fig6,fig7,table4 -scale 0.1
//	fcmbench -run all -scale 1.0 -csv out/
//
// -scale 1.0 runs the paper's full 20M-packet / 1.5MB configuration (slow);
// the default 0.1 preserves every comparison's shape in a tenth of the time.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"github.com/fcmsketch/fcm/internal/em"
	"github.com/fcmsketch/fcm/internal/exp"
	"github.com/fcmsketch/fcm/internal/telemetry"
)

func main() {
	var (
		run     = flag.String("run", "", "comma-separated experiment IDs, or 'all'")
		list    = flag.Bool("list", false, "list available experiments")
		scale   = flag.Float64("scale", 0.1, "workload/memory scale (1.0 = paper scale)")
		seed    = flag.Int64("seed", 31337, "trace and hashing seed")
		iters   = flag.Int("iters", 5, "EM iterations")
		workers = flag.Int("workers", 0, "EM worker goroutines (0 = all cores)")
		csvDir  = flag.String("csv", "", "also write each table as CSV into this directory")
		verbose = flag.Bool("v", false, "print progress while running")
		debug   = flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof while experiments run")
	)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, e := range exp.List() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Description)
		}
		if *run == "" && !*list {
			fmt.Println("\nselect with -run <id>[,<id>...] or -run all")
		}
		return
	}

	opts := exp.Options{
		Scale:        *scale,
		Seed:         *seed,
		EMIterations: *iters,
		Workers:      *workers,
	}
	if *verbose {
		opts.Log = os.Stderr
	}

	// Live introspection while long experiment sweeps run: pprof for CPU
	// profiles, /metrics for EM iteration counts and latency.
	if *debug != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterProcessMetrics(reg)
		telemetry.RegisterBuildInfo(reg, telemetry.Build())
		opts.EMMetrics = em.NewMetrics(reg)
		addr, shutdown, err := telemetry.Serve(*debug,
			telemetry.NewMux(reg, "fcmbench", nil))
		if err != nil {
			fmt.Fprintf(os.Stderr, "fcmbench: %v\n", err)
			os.Exit(1)
		}
		defer shutdown() //nolint:errcheck // exiting anyway
		fmt.Fprintf(os.Stderr, "debug endpoints on %s\n", addr)
	}

	var ids []string
	if *run == "all" {
		for _, e := range exp.List() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}

	exitCode := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, err := exp.Lookup(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exitCode = 1
			continue
		}
		// Label the run so -debug-addr CPU profiles attribute samples to
		// the experiment that burned them.
		var tables []*exp.Table
		pprof.Do(context.Background(),
			pprof.Labels("subsystem", "bench", "experiment", id),
			func(context.Context) { tables, err = e.Run(opts) })
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			exitCode = 1
			continue
		}
		for _, t := range tables {
			if err := t.Fprint(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "%s: printing: %v\n", id, err)
				exitCode = 1
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, t); err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
					exitCode = 1
				}
			}
		}
	}
	os.Exit(exitCode)
}

// writeCSV stores one table as <dir>/<id>.csv.
func writeCSV(dir string, t *exp.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
