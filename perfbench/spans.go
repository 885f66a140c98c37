package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed public call: its name, its interval, the span that
// caused it, and the operation (one ID per top-level operation) it belongs
// to. Units is how many packets, keys or buckets the call covered, so
// per-unit figures divide by what was actually done.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Units  int    `json:"units,omitempty"`
}

// active is an open span; the zero value means "no span" (tracing off, or
// no parent).
type active struct {
	id, op uint64
	parent uint64
	name   string
	start  time.Time
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	ops   uint64
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// start opens a span under parent (the zero active for a new operation).
func (t *tracer) start(name string, parent active) active {
	if t == nil || !t.on {
		return active{}
	}
	a := active{name: name, parent: parent.id, op: parent.op}
	t.mu.Lock()
	t.next++
	a.id = t.next
	if a.op == 0 {
		t.ops++
		a.op = t.ops
	}
	t.mu.Unlock()
	a.start = time.Now()
	return a
}

// end closes a span that covered units packets, keys or buckets.
func (t *tracer) end(a active, units int) {
	if a.id == 0 {
		return
	}
	stop := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: a.id, Parent: a.parent, Op: a.op, Name: a.name,
		Start: int64(a.start.Sub(t.t0)), End: int64(stop.Sub(t.t0)), Units: units})
	t.mu.Unlock()
}

// selfPerUnit returns, for every span named name, its self time — its
// duration minus the part of its interval covered by its children — in
// milliseconds divided by its units (1 when unset).
func (t *tracer) selfPerUnit(name string) []float64 {
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		self := s.End - s.Start - covered(children[s.ID])
		u := max(s.Units, 1)
		out = append(out, float64(self)/1e6/float64(u))
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	if len(ss) == 0 {
		return 0
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total int64
	lo, hi := ss[0].Start, ss[0].End
	for _, s := range ss[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
			continue
		}
		hi = max(hi, s.End)
	}
	return total + hi - lo
}

// dump writes every span as one JSON object per line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perPacketNs is the busy time of every span named name, summed over
// goroutines, per unit covered: the composed per-packet cost of a writer.
func (t *tracer) perPacketNs(name string) float64 {
	var busy int64
	var units int
	for _, s := range t.spans {
		if s.Name == name {
			busy += s.End - s.Start
			units += s.Units
		}
	}
	if units == 0 {
		return 0
	}
	return float64(busy) / float64(units)
}
