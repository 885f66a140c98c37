// Package trace generates and loads the packet traces the evaluation runs
// on. Two synthetic models are provided:
//
//   - RankZipf: flow i (by rank) has size ∝ i^(-alpha). This mimics real
//     backbone traces (CAIDA): an enormous number of mice plus a few
//     elephants far above the heavy-hitter threshold. CAIDALike uses this
//     model with alpha=1.0 and an average flow size of 40 packets, matching
//     the trace statistics the paper reports (§7.2: ~20M packets, ~0.5M
//     source-IP flows per 15s window).
//
//   - SizeZipf: flow sizes are drawn i.i.d. from a truncated power law
//     P(s) ∝ s^(-alpha), 1 ≤ s ≤ smax, with smax solved so the mean flow
//     size is ~50 packets. This reproduces the synthetic traces of §7.4:
//     for alpha between 1.1 and 1.7 the solved smax ranges from a few
//     hundred to ~100K packets, exactly the "maximum flow size varies
//     between 400 to 100K" the paper states.
//
// Traces can be exported to and imported from pcap files (via
// internal/pcap), so the ingest path used by the examples is the same one a
// real capture would take.
package trace

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"github.com/fcmsketch/fcm/internal/packet"
	"github.com/fcmsketch/fcm/internal/pcap"
	"github.com/fcmsketch/fcm/internal/sketch"
)

// Model selects the flow-size model of a synthetic trace.
type Model int

// Supported models.
const (
	// ModelRankZipf assigns flow sizes by rank: size(i) ∝ i^(-alpha).
	ModelRankZipf Model = iota
	// ModelSizeZipf draws flow sizes i.i.d. from a truncated power law.
	ModelSizeZipf
)

// Config parameterizes trace generation.
type Config struct {
	// Model selects the flow-size model.
	Model Model
	// Alpha is the Zipf skewness parameter.
	Alpha float64
	// TotalPackets is the approximate target packet count.
	TotalPackets int
	// AvgFlowSize is the target mean flow size in packets (default 50).
	AvgFlowSize float64
	// MaxFlowSize caps flow sizes for ModelSizeZipf. Zero means "solve
	// from AvgFlowSize", the paper's construction.
	MaxFlowSize int
	// Seed makes generation deterministic.
	Seed int64
	// Shuffle randomizes packet arrival order (needed by the TopK /
	// HashPipe eviction dynamics). Off, packets arrive interleaved
	// round-robin, which is cheaper and sufficient for pure sketches.
	Shuffle bool
	// KeyKind selects the flow-key granularity (default source IP, the
	// paper's keying; KeyFiveTuple generates distinct 5-tuples instead).
	KeyKind packet.KeyKind
}

// Trace is a generated or loaded packet trace with exact ground truth.
type Trace struct {
	// Keys holds one flow key per flow; the index is the flow ID.
	Keys []packet.Key
	// Sizes holds the exact packet count of each flow.
	Sizes []uint32
	// Order is the packet arrival order as flow IDs.
	Order []uint32
}

// NumFlows returns the number of distinct flows.
func (t *Trace) NumFlows() int { return len(t.Keys) }

// NumPackets returns the total number of packets.
func (t *Trace) NumPackets() int { return len(t.Order) }

// ForEachPacket calls fn for every packet in arrival order with the flow ID
// and the encoded flow key.
func (t *Trace) ForEachPacket(fn func(flowID int, key []byte)) {
	for _, id := range t.Order {
		fn(int(id), t.Keys[id].Bytes())
	}
}

// Replay feeds every packet to u in arrival order with increment 1 — the
// unbatched ingest baseline. The key views point into the trace's own key
// table, so no bytes are copied and nothing is allocated per packet.
func (t *Trace) Replay(u sketch.Updater) {
	for _, id := range t.Order {
		u.Update(t.Keys[id].Bytes(), 1)
	}
}

// BatchReplayer replays traces through the batched ingest path with a
// reusable key-view buffer: after construction, a replay performs zero
// allocations per packet. One BatchReplayer serves any number of
// consecutive replays; it is not safe for concurrent use.
type BatchReplayer struct {
	batch int
	keys  [][]byte
}

// NewBatchReplayer sizes the reusable buffer to batch keys (default 256).
func NewBatchReplayer(batch int) *BatchReplayer {
	if batch <= 0 {
		batch = 256
	}
	return &BatchReplayer{batch: batch, keys: make([][]byte, 0, batch)}
}

// Replay feeds t's packets to bu in arrival order, batch keys per
// UpdateBatch call, with increment 1. The final short batch is flushed
// before returning. The key views are stable (they point into t's key
// table), so the BatchUpdater's no-retention rule is trivially satisfied.
func (r *BatchReplayer) Replay(t *Trace, bu sketch.BatchUpdater) {
	keys := r.keys[:0]
	for _, id := range t.Order {
		keys = append(keys, t.Keys[id].Bytes())
		if len(keys) == r.batch {
			bu.UpdateBatch(keys, 1)
			keys = keys[:0]
		}
	}
	bu.UpdateBatch(keys, 1)
	r.keys = keys[:0]
}

// TrueCounts returns the ground-truth per-flow counts keyed by flow key.
func (t *Trace) TrueCounts() map[packet.Key]uint32 {
	m := make(map[packet.Key]uint32, len(t.Keys))
	for i, k := range t.Keys {
		m[k] = t.Sizes[i]
	}
	return m
}

// MaxSize returns the largest flow size in the trace.
func (t *Trace) MaxSize() uint32 {
	var mx uint32
	for _, s := range t.Sizes {
		if s > mx {
			mx = s
		}
	}
	return mx
}

// Windows splits the packet stream into n equal consecutive windows, each a
// Trace sharing the flow-key table but with per-window sizes and order.
// Used by the heavy-change experiments (§4.4).
func (t *Trace) Windows(n int) []*Trace {
	if n <= 0 {
		n = 1
	}
	out := make([]*Trace, n)
	per := len(t.Order) / n
	for w := 0; w < n; w++ {
		lo := w * per
		hi := lo + per
		if w == n-1 {
			hi = len(t.Order)
		}
		sizes := make([]uint32, len(t.Keys))
		order := t.Order[lo:hi]
		for _, id := range order {
			sizes[id]++
		}
		out[w] = &Trace{Keys: t.Keys, Sizes: sizes, Order: order}
	}
	return out
}

// Generate builds a synthetic trace from cfg.
func Generate(cfg Config) (*Trace, error) {
	if cfg.TotalPackets <= 0 {
		return nil, fmt.Errorf("trace: TotalPackets must be positive, got %d", cfg.TotalPackets)
	}
	if cfg.Alpha <= 0 {
		return nil, fmt.Errorf("trace: Alpha must be positive, got %f", cfg.Alpha)
	}
	if cfg.AvgFlowSize <= 0 {
		cfg.AvgFlowSize = 50
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var sizes []uint32
	switch cfg.Model {
	case ModelRankZipf:
		sizes = rankZipfSizes(cfg.TotalPackets, cfg.Alpha, cfg.AvgFlowSize)
	case ModelSizeZipf:
		sizes = sizeZipfSizes(rng, cfg.TotalPackets, cfg.Alpha, cfg.AvgFlowSize, cfg.MaxFlowSize)
	default:
		return nil, fmt.Errorf("trace: unknown model %d", cfg.Model)
	}

	tr := &Trace{Sizes: sizes}
	tr.Keys = distinctKeys(rng, len(sizes), cfg.KeyKind)
	tr.Order = buildOrder(rng, sizes, cfg.Shuffle)
	return tr, nil
}

// CAIDALike generates a trace with the statistics of the paper's CAIDA
// Equinix-NYC windows: source-IP flows, average size ~40 packets, a handful
// of elephants well above the 0.05% heavy-hitter threshold.
func CAIDALike(totalPackets int, seed int64) (*Trace, error) {
	return Generate(Config{
		Model:        ModelRankZipf,
		Alpha:        1.0,
		TotalPackets: totalPackets,
		AvgFlowSize:  40,
		Seed:         seed,
		Shuffle:      true,
	})
}

// rankZipfSizes assigns size(i) = C * (i+1)^(-alpha) with N chosen from the
// average flow size and C normalized so the total is ~totalPackets.
func rankZipfSizes(totalPackets int, alpha, avg float64) []uint32 {
	n := int(float64(totalPackets) / avg)
	if n < 1 {
		n = 1
	}
	// Harmonic-like normalizer H = sum i^(-alpha).
	h := 0.0
	for i := 1; i <= n; i++ {
		h += math.Pow(float64(i), -alpha)
	}
	c := float64(totalPackets) / h
	sizes := make([]uint32, n)
	assigned := 0
	for i := 0; i < n; i++ {
		s := int(c * math.Pow(float64(i+1), -alpha))
		if s < 1 {
			s = 1
		}
		sizes[i] = uint32(s)
		assigned += s
	}
	// Absorb rounding drift in the largest flow so the total is exact
	// when possible.
	if diff := totalPackets - assigned; diff > 0 {
		sizes[0] += uint32(diff)
	} else if diff < 0 && sizes[0] > uint32(-diff) {
		sizes[0] -= uint32(-diff)
	}
	return sizes
}

// sizeZipfSizes draws i.i.d. flow sizes from P(s) ∝ s^(-alpha) on
// [1, smax]. When smax is zero it is solved so the distribution mean is avg
// (§7.4's construction). The number of flows is totalPackets/avg.
func sizeZipfSizes(rng *rand.Rand, totalPackets int, alpha, avg float64, smax int) []uint32 {
	if smax <= 0 {
		smax = solveSmax(alpha, avg)
	}
	cdf := powerLawCDF(alpha, smax)
	n := int(float64(totalPackets) / avg)
	if n < 1 {
		n = 1
	}
	sizes := make([]uint32, n)
	for i := range sizes {
		u := rng.Float64()
		// Invert the CDF by binary search: first index with cdf ≥ u.
		s := sort.SearchFloat64s(cdf, u) + 1
		if s > smax {
			s = smax
		}
		sizes[i] = uint32(s)
	}
	return sizes
}

// powerLawCDF tabulates the CDF of P(s) ∝ s^(-alpha) for s in [1, smax].
func powerLawCDF(alpha float64, smax int) []float64 {
	cdf := make([]float64, smax)
	total := 0.0
	for s := 1; s <= smax; s++ {
		total += math.Pow(float64(s), -alpha)
		cdf[s-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

// solveSmax binary-searches the truncation point of the power law so its
// mean equals avg.
func solveSmax(alpha, avg float64) int {
	mean := func(smax int) float64 {
		num, den := 0.0, 0.0
		for s := 1; s <= smax; s++ {
			p := math.Pow(float64(s), -alpha)
			num += float64(s) * p
			den += p
		}
		return num / den
	}
	lo, hi := 2, 1
	// Grow hi until the mean exceeds the target (the mean is monotone in
	// smax for alpha > 0).
	for {
		hi *= 2
		if mean(hi) >= avg || hi >= 1<<24 {
			break
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if mean(mid) < avg {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// distinctKeys generates n distinct random flow keys of the given kind.
func distinctKeys(rng *rand.Rand, n int, kind packet.KeyKind) []packet.Key {
	keys := make([]packet.Key, 0, n)
	seen := make(map[packet.Key]struct{}, n)
	for len(keys) < n {
		var t packet.FiveTuple
		ip := rng.Uint32()
		t.SrcIP[0] = byte(ip >> 24)
		t.SrcIP[1] = byte(ip >> 16)
		t.SrcIP[2] = byte(ip >> 8)
		t.SrcIP[3] = byte(ip)
		if kind != packet.KeySrcIP {
			dip := rng.Uint32()
			t.DstIP[0] = byte(dip >> 24)
			t.DstIP[1] = byte(dip >> 16)
			t.DstIP[2] = byte(dip >> 8)
			t.DstIP[3] = byte(dip)
			t.SrcPort = uint16(rng.Uint32())
			t.DstPort = uint16(rng.Uint32())
			t.Proto = packet.ProtoTCP
			if rng.Intn(4) == 0 {
				t.Proto = packet.ProtoUDP
			}
		}
		k := packet.KeyOf(t, kind)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	return keys
}

// buildOrder materializes the packet arrival order. Without shuffling,
// packets are emitted in a round-robin interleave over the flows, which
// avoids pathological bursts: round r emits one packet of every flow
// larger than r, in flow order. Each round walks only the flows that still
// have packets, so the whole order costs O(total), not O(largest × flows).
func buildOrder(rng *rand.Rand, sizes []uint32, shuffle bool) []uint32 {
	total := 0
	active := make([]uint32, 0, len(sizes))
	for id, s := range sizes {
		total += int(s)
		if s > 0 {
			active = append(active, uint32(id))
		}
	}
	order := make([]uint32, 0, total)
	for round := uint32(1); len(active) > 0; round++ {
		kept := active[:0]
		for _, id := range active {
			order = append(order, id)
			if sizes[id] > round {
				kept = append(kept, id)
			}
		}
		active = kept
	}
	if shuffle {
		rng.Shuffle(len(order), func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
	}
	return order
}

// ---------------------------------------------------------------------------
// pcap import/export
// ---------------------------------------------------------------------------

// WritePcap encodes the trace as Ethernet/IPv4 frames into w. Timestamps
// are spread uniformly over duration nanoseconds starting at startNS. Every
// flow is emitted as a TCP flow between its source IP and a fixed collector
// address; the source IP is the flow identity, matching the paper's keying.
func (t *Trace) WritePcap(w io.Writer, startNS, durationNS int64) error {
	pw, err := pcap.NewWriter(w, pcap.LinkEthernet, 262144, true)
	if err != nil {
		return err
	}
	n := len(t.Order)
	var step int64 = 1
	if n > 1 && durationNS > int64(n) {
		step = durationNS / int64(n)
	}
	for i, id := range t.Order {
		k := t.Keys[id]
		var tu packet.FiveTuple
		copy(tu.SrcIP[:], k.Buf[0:4])
		if k.Len >= 8 {
			// The key carries its own destination (and, at 13 bytes, the
			// full 5-tuple): preserve it on the wire.
			copy(tu.DstIP[:], k.Buf[4:8])
		} else {
			tu.DstIP = [4]byte{10, 0, 0, 1}
		}
		if k.Len == 13 {
			tu.SrcPort = uint16(k.Buf[8])<<8 | uint16(k.Buf[9])
			tu.DstPort = uint16(k.Buf[10])<<8 | uint16(k.Buf[11])
			tu.Proto = packet.Proto(k.Buf[12])
			if tu.Proto != packet.ProtoTCP && tu.Proto != packet.ProtoUDP {
				tu.Proto = packet.ProtoTCP
			}
		} else {
			tu.SrcPort = uint16(id%60000) + 1024
			tu.DstPort = 80
			tu.Proto = packet.ProtoTCP
		}
		frame := packet.EncodeEthernetIPv4(tu, 0)
		if err := pw.Write(startNS+int64(i)*step, len(frame), frame); err != nil {
			return err
		}
	}
	return pw.Flush()
}

// ReplayPcap streams a pcap capture directly into u without materializing
// a Trace: one pass over the file, reusing the pcap reader's frame buffer
// and a single hoisted Key value, so the steady-state per-packet cost is
// parse + update with no allocation. It returns the number of packets
// ingested and the number of unparsable frames skipped.
func ReplayPcap(r io.Reader, kind packet.KeyKind, u sketch.Updater) (packets, skipped int, err error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return 0, 0, err
	}
	raw := pr.Header().LinkType == pcap.LinkRaw
	// k lives outside the loop: Bytes takes its address, which would
	// otherwise heap-allocate a fresh Key on every packet.
	var k packet.Key
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			return packets, skipped, nil
		}
		if err != nil {
			return packets, skipped, err
		}
		var tu packet.FiveTuple
		var perr error
		if raw {
			tu, perr = packet.ParseIPv4(rec.Data)
			if perr != nil {
				tu, perr = packet.ParseIPv6(rec.Data)
			}
		} else {
			tu, perr = packet.ParseEthernet(rec.Data)
		}
		if perr != nil {
			skipped++
			continue
		}
		k = packet.KeyOf(tu, kind)
		u.Update(k.Bytes(), 1)
		packets++
	}
}

// ReadPcap loads a pcap stream into a Trace, keying flows by kind. Frames
// that fail to parse are skipped and counted in the returned skip count.
func ReadPcap(r io.Reader, kind packet.KeyKind) (*Trace, int, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, 0, err
	}
	raw := pr.Header().LinkType == pcap.LinkRaw
	tr := &Trace{}
	ids := make(map[packet.Key]uint32)
	skipped := 0
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, skipped, err
		}
		var tu packet.FiveTuple
		var perr error
		if raw {
			tu, perr = packet.ParseIPv4(rec.Data)
			if perr != nil {
				tu, perr = packet.ParseIPv6(rec.Data)
			}
		} else {
			tu, perr = packet.ParseEthernet(rec.Data)
		}
		if perr != nil {
			skipped++
			continue
		}
		k := packet.KeyOf(tu, kind)
		id, ok := ids[k]
		if !ok {
			id = uint32(len(tr.Keys))
			ids[k] = id
			tr.Keys = append(tr.Keys, k)
			tr.Sizes = append(tr.Sizes, 0)
		}
		tr.Sizes[id]++
		tr.Order = append(tr.Order, id)
	}
	return tr, skipped, nil
}
