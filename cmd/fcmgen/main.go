// Command fcmgen generates synthetic packet traces in pcap format: either
// CAIDA-like backbone traffic (rank-Zipf flow sizes, the §7.2 workload) or
// the i.i.d. truncated-power-law traces of §7.4.
//
// Usage:
//
//	fcmgen -o trace.pcap -packets 1000000
//	fcmgen -o zipf.pcap -model size -alpha 1.5 -packets 500000
//	fcmgen -o trace.pcap -packets 1000000 -predict-mem 1300000
//
// With -predict-mem the generated trace is additionally replayed through
// an FCM sketch of that size (the paper's 2-tree 8-ary geometry) and the
// insight accuracy self-report is printed — the offline twin of a running
// switch's /debug/insight, for sizing memory before deployment.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/insight"
	"github.com/fcmsketch/fcm/internal/telemetry"
	"github.com/fcmsketch/fcm/internal/trace"
)

func main() {
	var (
		out     = flag.String("o", "trace.pcap", "output pcap path")
		packets = flag.Int("packets", 1_000_000, "approximate packet count")
		model   = flag.String("model", "caida", "flow-size model: caida | rank | size")
		alpha   = flag.Float64("alpha", 1.3, "Zipf skewness (rank/size models)")
		avg     = flag.Float64("avg", 50, "average flow size in packets")
		seed    = flag.Int64("seed", 1, "generation seed")
		stats   = flag.Bool("stats", true, "print trace statistics")
		predict = flag.Int("predict-mem", 0, "replay the trace through an FCM sketch of this many bytes and print its predicted accuracy report (0 = off)")
		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("fcmgen " + telemetry.Build().String())
		return
	}

	var (
		tr  *trace.Trace
		err error
	)
	switch *model {
	case "caida":
		tr, err = trace.CAIDALike(*packets, *seed)
	case "rank":
		tr, err = trace.Generate(trace.Config{
			Model: trace.ModelRankZipf, Alpha: *alpha,
			TotalPackets: *packets, AvgFlowSize: *avg, Seed: *seed, Shuffle: true,
		})
	case "size":
		tr, err = trace.Generate(trace.Config{
			Model: trace.ModelSizeZipf, Alpha: *alpha,
			TotalPackets: *packets, AvgFlowSize: *avg, Seed: *seed, Shuffle: true,
		})
	default:
		err = fmt.Errorf("unknown model %q (caida, rank, size)", *model)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fcmgen:", err)
		os.Exit(1)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fcmgen:", err)
		os.Exit(1)
	}
	// Spread timestamps over a 15-second window like the CAIDA cuts.
	if err := tr.WritePcap(f, 0, 15e9); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "fcmgen:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "fcmgen:", err)
		os.Exit(1)
	}

	if *stats {
		fmt.Printf("wrote %s: %d packets, %d flows, max flow %d packets, avg %.1f\n",
			*out, tr.NumPackets(), tr.NumFlows(), tr.MaxSize(),
			float64(tr.NumPackets())/float64(tr.NumFlows()))
	}

	if *predict > 0 {
		if err := predictAccuracy(tr, *predict); err != nil {
			fmt.Fprintln(os.Stderr, "fcmgen:", err)
			os.Exit(1)
		}
	}
}

// predictAccuracy replays the generated trace through the paper's default
// FCM geometry at the given memory budget and prints the insight
// self-report the deployed switch would serve at /debug/insight — §5's
// error bound, linear-counting validity, and saturation state, evaluated
// for this workload before any hardware is provisioned.
func predictAccuracy(tr *trace.Trace, memBytes int) error {
	sk, err := core.New(core.Config{
		K:           8,
		Trees:       2,
		MemoryBytes: memBytes,
		Hash:        hashing.DataPlaneFamily(0),
	})
	if err != nil {
		return fmt.Errorf("building %dB sketch: %w", memBytes, err)
	}
	sk.SetStats(core.NewStats(sk.Depth()))
	tr.ForEachPacket(func(_ int, key []byte) { sk.Update(key, 1) })

	obs := insight.Observe(sk)
	obs.ExactMaxDegree = sk.MaxDegree()
	rep := insight.NewAnalyzer(insight.Config{}).Note(obs)
	fmt.Printf("\npredicted accuracy at %d bytes (k=8, 2 trees):\n", memBytes)
	insight.WriteText(os.Stdout, rep)
	return nil
}
