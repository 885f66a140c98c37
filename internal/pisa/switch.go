package pisa

import (
	"fmt"

	"github.com/fcmsketch/fcm/internal/cmsketch"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/topk"
)

// Switch executes a compiled measurement program. The per-stage semantics
// of FCM-Sketch on PISA are exactly Algorithm 1 — one single-access
// read-modify-write register op per stage — so the hardware data plane is
// bit-identical to the software sketch (§8.2.1 observes exactly this).
// The hardware differences the paper measures all come from the Top-K
// approximation: a single-level, no-eviction filter (§8.1).
type Switch struct {
	alloc  *Allocation
	sketch *core.Sketch
	filter *topk.Filter // nil for plain FCM
	cm     *cmsketch.Sketch
	tcam   *TCAMCardinality
}

// SwitchConfig builds a hardware data plane.
type SwitchConfig struct {
	// Program selects what runs on the pipeline.
	Program Program
	// MemoryBytes is the sketch budget (filter carved out first for the
	// TopK programs).
	MemoryBytes int
	// LeafWidth pins w1 (stage-1 nodes per tree) directly instead of
	// solving it from MemoryBytes — exactly one of the two must be set for
	// the FCM programs. Pinning the leaf width lets a software sketch and
	// the hardware pipeline be built with byte-for-byte identical
	// geometry, which is what the differential harness asserts on.
	LeafWidth int
	// PerTreeHash forces one independent hash evaluation per tree, the
	// same mode switch as fcm.Config.PerTreeHash. It must match the
	// software sketch's mode for the data planes to be bit-identical
	// (the two modes place counters differently).
	PerTreeHash bool
	// Trees, K, Widths configure the FCM programs (defaults 2, 8/16 per
	// the paper, 8/16/32 bits).
	Trees  int
	K      int
	Widths []int
	// CMRows configures ProgramCMTopK (d arrays of 8-bit registers).
	CMRows int
	// TopKEntries sizes the filter (§8.2.2 uses 16K for CM(d)+TopK).
	TopKEntries int
	// KeyBytes is the flow-key width (default 4).
	KeyBytes int
	// Seed derives hash functions; matching the software seed makes the
	// FCM data planes bit-identical.
	Seed uint32
	// Limits defaults to DefaultLimits().
	Limits *Limits
}

// Program enumerates the compiled data planes of §8.
type Program int

// Supported programs.
const (
	// ProgramFCM is the plain FCM-Sketch (4 stages).
	ProgramFCM Program = iota
	// ProgramFCMTopK is FCM behind a single-level no-eviction filter
	// (8 stages).
	ProgramFCMTopK
	// ProgramCMTopK emulates ElasticSketch: d 8-bit CM arrays behind the
	// same filter.
	ProgramCMTopK
)

// String implements fmt.Stringer.
func (p Program) String() string {
	switch p {
	case ProgramFCM:
		return "FCM-Sketch"
	case ProgramFCMTopK:
		return "FCM+TopK"
	case ProgramCMTopK:
		return "CM+TopK"
	default:
		return fmt.Sprintf("program(%d)", int(p))
	}
}

// NewSwitch compiles and instantiates a hardware data plane.
func NewSwitch(cfg SwitchConfig) (*Switch, error) {
	limits := DefaultLimits()
	if cfg.Limits != nil {
		limits = *cfg.Limits
	}
	if cfg.Trees == 0 {
		cfg.Trees = 2
	}
	if cfg.K == 0 {
		if cfg.Program == ProgramFCM {
			cfg.K = 8
		} else {
			cfg.K = 16
		}
	}
	if len(cfg.Widths) == 0 {
		cfg.Widths = core.DefaultWidths()
	}
	if cfg.KeyBytes == 0 {
		cfg.KeyBytes = 4
	}

	sw := &Switch{}
	mem := cfg.MemoryBytes
	if cfg.LeafWidth > 0 && cfg.Program == ProgramCMTopK {
		return nil, fmt.Errorf("pisa: LeafWidth requires an FCM program, got %s", cfg.Program)
	}

	if cfg.Program == ProgramFCMTopK || cfg.Program == ProgramCMTopK {
		entries := cfg.TopKEntries
		if entries == 0 {
			entries = 16384
		}
		f, err := topk.New(topk.Config{
			Levels:          1,
			EntriesPerLevel: entries,
			KeySize:         cfg.KeyBytes,
			NoEviction:      true,
			Hash:            hashing.NewBobFamily(0x70f1 ^ cfg.Seed),
		})
		if err != nil {
			return nil, fmt.Errorf("pisa: filter: %w", err)
		}
		sw.filter = f
		mem -= f.MemoryBytes()
		// With a pinned LeafWidth the sketch budget is implied by the
		// geometry, so no memory remains to be carved from.
		if mem <= 0 && cfg.LeafWidth == 0 {
			return nil, fmt.Errorf("pisa: memory %dB leaves nothing after a %dB filter",
				cfg.MemoryBytes, f.MemoryBytes())
		}
		if cfg.LeafWidth > 0 {
			mem = 0
		}
	}

	switch cfg.Program {
	case ProgramFCM, ProgramFCMTopK:
		s, err := core.New(core.Config{
			K:           cfg.K,
			Trees:       cfg.Trees,
			Widths:      cfg.Widths,
			MemoryBytes: mem,
			LeafWidth:   cfg.LeafWidth,
			Hash:        hashing.DataPlaneFamily(cfg.Seed),
			PerTreeHash: cfg.PerTreeHash,
		})
		if err != nil {
			return nil, fmt.Errorf("pisa: sketch: %w", err)
		}
		sw.sketch = s
		geom := FCMGeometry{
			Trees:       cfg.Trees,
			K:           cfg.K,
			LeafWidth:   s.LeafWidth(),
			Widths:      cfg.Widths,
			KeyBytes:    cfg.KeyBytes,
			Cardinality: true,
		}
		tcam, err := BuildTCAMCardinality(s.LeafWidth(), 0.002)
		if err != nil {
			return nil, err
		}
		sw.tcam = tcam
		geom.TCAMEntries = tcam.Entries()
		if cfg.Program == ProgramFCM {
			sw.alloc, err = CompileFCM(geom, limits)
		} else {
			sw.alloc, err = CompileFCMTopK(geom,
				TopKGeometry{Entries: cfg.TopKEntries, KeyBytes: cfg.KeyBytes}, limits)
		}
		if err != nil {
			return nil, err
		}
	case ProgramCMTopK:
		rows := cfg.CMRows
		if rows == 0 {
			rows = 2
		}
		cm, err := cmsketch.New(cmsketch.Config{
			MemoryBytes: mem,
			Rows:        rows,
			Bits:        8,
			Hash:        hashing.NewBobFamily(0x5ca1ab1e ^ cfg.Seed),
		})
		if err != nil {
			return nil, fmt.Errorf("pisa: cm: %w", err)
		}
		sw.cm = cm
		sw.alloc, err = CompileCMTopK(
			CMGeometry{Rows: rows, Width: cm.Width(), Bits: 8, KeyBytes: cfg.KeyBytes},
			TopKGeometry{Entries: cfg.TopKEntries, KeyBytes: cfg.KeyBytes}, limits)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("pisa: unknown program %d", cfg.Program)
	}
	return sw, nil
}

// Allocation returns the compiled resource placement.
func (s *Switch) Allocation() *Allocation { return s.alloc }

// Update processes one packet through the pipeline.
func (s *Switch) Update(key []byte, inc uint64) {
	if s.filter != nil {
		rk, rc := s.filter.Update(key, inc)
		if rc == 0 {
			return
		}
		key, inc = rk, rc
	}
	if s.sketch != nil {
		s.sketch.Update(key, inc)
		return
	}
	s.cm.Update(key, inc)
}

// Estimate answers the data-plane count query.
func (s *Switch) Estimate(key []byte) uint64 {
	var resid uint64
	if s.sketch != nil {
		resid = s.sketch.Estimate(key)
	} else {
		resid = s.cm.Estimate(key)
	}
	if s.filter == nil {
		return resid
	}
	count, found, flagged := s.filter.Lookup(key)
	if !found {
		return resid
	}
	if flagged {
		return count + resid
	}
	return count
}

// Cardinality answers the data-plane cardinality query via the TCAM table
// (Appendix C). Only the FCM programs support it.
func (s *Switch) Cardinality() (float64, error) {
	if s.sketch == nil || s.tcam == nil {
		return 0, fmt.Errorf("pisa: %s has no cardinality support", s.alloc.Name)
	}
	w0 := int(s.sketch.EmptyLeaves())
	if w0 < 1 {
		w0 = 1
	}
	n := s.tcam.Lookup(w0)
	if s.filter != nil {
		s.filter.Entries(func(_ []byte, _ uint64, flagged bool) {
			if !flagged {
				n++
			}
		})
	}
	return n, nil
}

// HeavyHitters enumerates filter residents at or above threshold (TopK
// programs only; plain FCM checks per-packet instead).
func (s *Switch) HeavyHitters(threshold uint64) map[string]uint64 {
	if s.filter == nil {
		return nil
	}
	hh := make(map[string]uint64)
	s.filter.Entries(func(key []byte, count uint64, flagged bool) {
		if flagged {
			if s.sketch != nil {
				count += s.sketch.Estimate(key)
			} else {
				count += s.cm.Estimate(key)
			}
		}
		if count >= threshold {
			hh[string(key)] = count
		}
	})
	return hh
}

// Sketch exposes the FCM registers for control-plane collection (nil for
// the CM program).
func (s *Switch) Sketch() *core.Sketch { return s.sketch }

// Filter exposes the hardware Top-K filter (nil for plain FCM).
func (s *Switch) Filter() *topk.Filter { return s.filter }

// CM exposes the light counter arrays of the CM(d)+TopK program (nil for
// the FCM programs).
func (s *Switch) CM() *cmsketch.Sketch { return s.cm }

// TCAM returns the installed cardinality table (nil for the CM program).
func (s *Switch) TCAM() *TCAMCardinality { return s.tcam }

// Reset clears the data plane for the next window.
func (s *Switch) Reset() {
	if s.filter != nil {
		s.filter.Reset()
	}
	if s.sketch != nil {
		s.sketch.Reset()
	}
	if s.cm != nil {
		s.cm.Reset()
	}
}
