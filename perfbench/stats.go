package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// beyond is how many of n samples lie above the nearest-rank q-quantile;
// a percentile is reported only with at least ten.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// retainedBytes is the live heap after two collections (the second empties
// sync.Pool victim caches, so pooled scratch does not count).
func retainedBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// buildRevision is the VCS revision the build recorded, or "".
func buildRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes every .go file and go.mod under root (skipping hidden
// directories such as the build cache), so two checkouts of the same
// source stamp the same identity.
func sourceDigest(root string) string {
	h := sha256.New()
	// Unreadable entries are skipped, so the walk itself never fails.
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		h.Write([]byte(path))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// stealMeter reads the host's CPU steal over an interval from /proc/stat:
// on a shared virtual machine, time the hypervisor gave our vCPUs to other
// guests inflates every timing of a run, so the report states it.
type stealMeter struct{ steal, total uint64 }

func cpuTicks() stealMeter {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMeter{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var m stealMeter
	if len(fields) < 9 || fields[0] != "cpu" {
		return m
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return stealMeter{}
		}
		m.total += v
		if i == 7 {
			m.steal = v
		}
	}
	return m
}

// stealSince is the share of CPU time stolen since start (0 where
// /proc/stat is unavailable).
func stealSince(start stealMeter) float64 {
	now := cpuTicks()
	if now.total <= start.total {
		return 0
	}
	return float64(now.steal-start.steal) / float64(now.total-start.total)
}

// samples holds one figure's samples, split by whether the hypervisor
// stole CPU time from the guest while each was taken (any rise of the
// host steal counter between its start and end).
type samples struct{ clean, stolen []float64 }

func (s *samples) add(v float64, clean bool) {
	if clean {
		s.clean = append(s.clean, v)
	} else {
		s.stolen = append(s.stolen, v)
	}
}

// n is the number of samples taken.
func (s *samples) n() int { return len(s.clean) + len(s.stolen) }

// use returns the samples a figure is computed from: the clean ones when
// there are at least 20 and a quarter of all — time the hypervisor gave
// to other guests measures the host, not the program — else all of them.
func (s *samples) use() []float64 {
	if len(s.clean) >= 20 && 4*len(s.clean) >= s.n() {
		return s.clean
	}
	return append(append([]float64(nil), s.clean...), s.stolen...)
}

func (s *samples) median() float64 { return median(s.use()) }

func (s *samples) p90() float64 { return quantile(s.use(), 0.9) }

// cleanFrac is the share of samples taken without steal.
func (s *samples) cleanFrac() float64 {
	if s.n() == 0 {
		return 0
	}
	return float64(len(s.clean)) / float64(s.n())
}

// stealTicks is the host's cumulative steal counter, 0 where unavailable.
func stealTicks() uint64 { return cpuTicks().steal }

// grouped turns a workload's windows (or collect rounds) into samples of a
// fixed number of consecutive windows. The ring coarsens on every second
// filed window and deeper levels on every 4th, 8th, ..., so a single
// window's freshness lag is bimodal by construction; a group of eight
// consecutive windows holds the same number of level-0, level-1 and level-2
// merges whatever window it starts at, so its lag per window moves only by
// the deeper levels' rarer merges.
type grouped struct {
	size int // windows per group

	n, packets int
	busy, lag  time.Duration
	clean      bool

	mpps  samples // per group: packets ÷ busy time, in Mpkt/s
	fresh samples // per group: freshness lag per window, in ms
	lags  samples // per window: freshness lag, in ms (for fresh_p90_ms)
}

// add records one window: its packets, the time its ingest (and Rotate)
// kept the data plane busy, its freshness lag and whether it ran without
// host steal. A group is clean when all its windows are.
func (g *grouped) add(packets int, busy, lag time.Duration, clean bool) {
	if g.n == 0 {
		g.clean = true
	}
	g.n++
	g.packets += packets
	g.busy += busy
	g.lag += lag
	g.clean = g.clean && clean
	g.lags.add(ms(lag), clean)
	if g.n == g.size {
		g.mpps.add(float64(g.packets)/g.busy.Seconds()/1e6, g.clean)
		g.fresh.add(ms(g.lag)/float64(g.n), g.clean)
		g.n, g.packets, g.busy, g.lag = 0, 0, 0, 0
	}
}

// groups is the number of full groups recorded.
func (g *grouped) groups() int { return g.fresh.n() }

// metrics are the rate and freshness figures of the report: the medians
// over groups, and the per-window freshness p90.
func (g *grouped) metrics() []metric {
	return []metric{
		{Name: "ingest_mpps", Unit: "Mpkt/s", Value: g.mpps.median(), N: len(g.mpps.use())},
		{Name: "fresh_p50_ms", Unit: "ms", Value: g.fresh.median(), N: len(g.fresh.use())},
		{Name: "fresh_p90_ms", Unit: "ms", Value: g.lags.p90(), N: beyond(len(g.lags.use()), 0.9)},
	}
}
