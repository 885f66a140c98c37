// Network-wide monitoring: three simulated switches sketch disjoint parts
// of the traffic with identically-configured FCM-Sketches; the control
// plane collects their register snapshots over TCP, merges them exactly
// (merge ≡ sketching the union of the streams), and answers global queries
// — per-flow counts across paths, total cardinality, and the network-wide
// flow-size distribution via EM.
//
// The collection path is deliberately unreliable: every switch's listener
// is wrapped in a deterministic fault injector (mid-frame resets and
// bit-flip corruption), so the run demonstrates the hardened client —
// per-operation deadlines, reconnect, retry with capped backoff — and the
// CRC-32C snapshot trailer that turns corruption into a clean retry
// instead of silently poisoned merges.
//
// One shared telemetry registry instruments all three servers and
// clients, labeled switch="0".."2", and the run closes by printing the
// collection-plane series — the same exposition a Prometheus scrape of a
// real deployment would return.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"github.com/fcmsketch/fcm"
	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/faultnet"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/telemetry"
	"github.com/fcmsketch/fcm/internal/trace"
)

func main() {
	cfg := fcm.Config{MemoryBytes: 256 << 10, Seed: 99}
	reg := telemetry.NewRegistry()

	// One trace split across three switches (e.g. ECMP paths).
	tr, err := trace.CAIDALike(600_000, 4)
	if err != nil {
		log.Fatal(err)
	}
	const switches = 3
	sketches := make([]*fcm.Sketch, switches)
	servers := make([]*collect.Server, switches)
	injectors := make([]*faultnet.Injector, switches)
	for i := range sketches {
		sk, err := fcm.NewSketch(cfg)
		if err != nil {
			log.Fatal(err)
		}
		sketches[i] = sk
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		// A deterministic chaos layer between switch and controller:
		// connections are reset mid-frame or have a bit flipped in
		// transit, per the drawn plan.
		inj := faultnet.New(faultnet.Config{
			Seed:          int64(1000 + i),
			ResetProb:     0.3,
			ResetAfterMax: 4096,
			CorruptProb:   0.3,
		})
		injectors[i] = inj
		servers[i] = collect.Serve(faultnet.Listen(ln, inj), collect.NewLockedSketch(sk.Core()), collect.ServerConfig{})
		servers[i].Instrument(reg, fmt.Sprintf(`switch="%d"`, i))
		defer servers[i].Close()
	}

	// Packets hash-spread across switches (each packet seen once).
	packets := make([]uint64, switches)
	i := 0
	tr.ForEachPacket(func(_ int, key []byte) {
		sketches[i%switches].Update(key, 1)
		packets[i%switches]++
		i++
	})
	fmt.Printf("replayed %d packets across %d switches\n", tr.NumPackets(), switches)

	// Control plane: a Framework aggregates the network-wide window; each
	// switch is collected over the faulty link and absorbed into it.
	global, err := fcm.NewFramework(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for i, srv := range servers {
		cl, err := collect.NewClient(collect.ClientConfig{
			Addr:        srv.Addr(),
			DialTimeout: 2 * time.Second,
			IOTimeout:   2 * time.Second,
			MaxRetries:  20,
			BackoffBase: 5 * time.Millisecond,
			JitterSeed:  7,
		})
		if err != nil {
			log.Fatal(err)
		}
		cl.Instrument(reg, fmt.Sprintf(`switch="%d"`, i))
		snap, err := cl.ReadSketch()
		st := cl.Stats()
		cl.Close()
		if err != nil {
			log.Fatal(err)
		}
		remote, err := snap.Restore(hashing.DataPlaneFamily(cfg.Seed))
		if err != nil {
			log.Fatal(err)
		}
		local, err := fcm.NewSketch(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := local.Core().Merge(remote); err != nil {
			log.Fatal(err)
		}
		if err := global.Absorb(local, packets[i]); err != nil {
			log.Fatal(err)
		}
		fs := injectors[i].Stats()
		fmt.Printf("collected and absorbed switch %d (%s): %d dials, %d retries through %d resets + %d corrupted writes\n",
			i, srv.Addr(), st.Dials, st.Retries, fs.Resets, fs.Corrupted)
	}

	// Global queries on the aggregated window.
	topKey := tr.Keys[0]
	fmt.Printf("\nglobal count of the top flow %s: %d (true %d)\n",
		topKey, global.Estimate(topKey.Bytes()), tr.Sizes[0])
	fmt.Printf("global cardinality: %.0f (true %d)\n", global.Cardinality(), tr.NumFlows())
	fmt.Printf("window packets absorbed: %d\n", global.WindowPackets())

	dist, err := global.FlowSizeDistribution(&fcm.EMOptions{Iterations: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("network-wide flow size distribution (head):")
	for size := 1; size <= 4; size++ {
		fmt.Printf("  size %d: %.0f flows\n", size, dist[size])
	}

	// The same registry a /metrics endpoint would serve: per-switch
	// collection-plane counters, labeled.
	fmt.Println("\ncollection-plane telemetry (Prometheus exposition):")
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fmt.Fprintln(os.Stdout, "  "+line)
	}
}
