package main

import (
	"bytes"
	"fmt"

	fcm "github.com/fcmsketch/fcm"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/trace"
)

// batch is the ingest batch: every writer replays 256-key batches.
const batch = 256

// load is the seeded input: a CAIDA-like trace (source-IP keys, Zipf
// α = 1, about 40 packets per flow), replayed cyclically in fixed-size
// windows. Packet keys are stored flat, without per-packet pointers, so
// the input adds nothing for the garbage collector to scan.
type load struct {
	packets keys
	flows   [][]byte // flow keys, heaviest first
}

// keys is a run of packets: their keys back to back, klen bytes each.
type keys struct {
	flat []byte
	klen int
}

func (k keys) len() int              { return len(k.flat) / k.klen }
func (k keys) key(i int) []byte      { return k.flat[i*k.klen : (i+1)*k.klen] }
func (k keys) slice(lo, hi int) keys { return keys{k.flat[lo*k.klen : hi*k.klen], k.klen} }

func newLoad(packets int, seed int64) (*load, error) {
	tr, err := trace.CAIDALike(packets, seed)
	if err != nil {
		return nil, fmt.Errorf("generating trace: %w", err)
	}
	if tr.NumPackets() < packets {
		return nil, fmt.Errorf("trace has %d packets, want %d", tr.NumPackets(), packets)
	}
	klen := len(tr.Keys[0].Bytes())
	l := &load{packets: keys{make([]byte, 0, packets*klen), klen}, flows: make([][]byte, tr.NumFlows())}
	for i := range tr.Keys {
		if len(tr.Keys[i].Bytes()) != klen {
			return nil, fmt.Errorf("flow %d has a %d-byte key, want %d", i, len(tr.Keys[i].Bytes()), klen)
		}
		l.flows[i] = tr.Keys[i].Bytes()
	}
	for _, id := range tr.Order[:packets] {
		l.packets.flat = append(l.packets.flat, l.flows[id]...)
	}
	return l, nil
}

// window returns window w's packets for windows of size packets.
func (l *load) window(w, size int) keys {
	i := w % (l.packets.len() / size)
	return l.packets.slice(i*size, (i+1)*size)
}

// replay feeds k to update in 256-key batches, stopping at the first
// error. Batches are views into k, assembled in a reused buffer.
func replay(k keys, update func([][]byte, uint64) error) error {
	views := make([][]byte, 0, batch)
	n := k.len()
	for i := 0; i < n; i += batch {
		views = views[:0]
		for j := i; j < min(i+batch, n); j++ {
			views = append(views, k.key(j))
		}
		if err := update(views, 1); err != nil {
			return err
		}
	}
	return nil
}

// noErr adapts an ingest call that cannot fail to replay.
func noErr(update func([][]byte, uint64)) func([][]byte, uint64) error {
	return func(keys [][]byte, inc uint64) error {
		update(keys, inc)
		return nil
	}
}

// parallel splits k into n contiguous parts, runs each on its own
// goroutine and returns the first error once all are done.
func parallel(k keys, n int, each func(part keys) error) error {
	errs := make(chan error, n)
	total := k.len()
	per := (total + n - 1) / n
	for i := 0; i < n; i++ {
		part := k.slice(min(i*per, total), min((i+1)*per, total))
		go func() { errs <- each(part) }()
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// reference builds serial re-ingest references: one core.Sketch of the
// benchmark geometry, fed packet by packet with core.Sketch.Update. With
// drop set it leaves out the first packet of the heaviest flow — a wrong
// reference that the answer checks must catch.
type reference struct {
	sk   *core.Sketch
	drop []byte
}

func newReference(l *load, drop bool) (*reference, error) {
	s, err := fcm.NewSketch(geometry)
	if err != nil {
		return nil, err
	}
	r := &reference{sk: s.Core()}
	if drop {
		r.drop = l.flows[0]
	}
	return r, nil
}

// of returns the serial ingest of the given packet runs. The sketch is
// reused by the next call.
func (r *reference) of(runs ...keys) *core.Sketch {
	r.sk.Reset()
	dropped := r.drop == nil
	for _, run := range runs {
		for i := 0; i < run.len(); i++ {
			k := run.key(i)
			if !dropped && bytes.Equal(k, r.drop) {
				dropped = true
				continue
			}
			r.sk.Update(k, 1)
		}
	}
	return r.sk
}

// each returns the serial references of n distinct inputs, input i being
// the packet runs packets(i) returns.
func (r *reference) each(n int, packets func(i int) []keys) []*core.Sketch {
	out := make([]*core.Sketch, n)
	for i := range out {
		out[i] = r.of(packets(i)...).Clone()
	}
	return out
}

// tally counts attempted and failed operations; an operation fails when
// it returns an error or its answer disagrees with its reference.
type tally struct {
	attempted, failed int
	first             string // the first failure, for the report
}

func (t *tally) record(err error, good bool, what string) {
	t.attempted++
	if err == nil && good {
		return
	}
	t.failed++
	if t.first == "" {
		if err != nil {
			what += ": " + err.Error()
		}
		t.first = what
	}
}
