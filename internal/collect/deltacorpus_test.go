package collect

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var updateDeltaCorpus = flag.Bool("update-delta-corpus", false,
	"rewrite the checked-in FuzzDeltaFrame seed corpus")

// deltaFrameSeeds is the deterministic seed set for FuzzDeltaFrame: the
// three pinned golden vectors plus one representative of each fault class
// the protocol must degrade through — truncation, bit flips in the header
// and body, a lying body length, an absurd block count, a version from the
// future, a retired version with valid checksums, and the empty input.
func deltaFrameSeeds() [][]byte {
	mustHex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			panic(err)
		}
		return b
	}
	empty := mustHex(goldenEmptyDeltaHex)
	delta := mustHex(goldenDeltaHex)
	full := mustHex(goldenFullDeltaHex)

	flip := func(src []byte, i int, mask byte) []byte {
		out := append([]byte(nil), src...)
		out[i] ^= mask
		return out
	}

	return [][]byte{
		empty,
		delta,
		full,
		nil,                                 // empty input
		delta[:deltaHeaderLen],              // header only, no body or trailer
		delta[:len(delta)-1],                // trailer truncated
		mustHex(retiredDeltaV3Hex),          // version 3 with valid checksums
		flip(empty, 4, 0x01),                // version byte: 4 -> 5 (future)
		flip(delta, 5, 0x01),                // flags: delta claims to be full
		flip(delta, deltaHeaderLen, 0x80),   // block count goes enormous
		flip(delta, deltaHeaderLen+6, 0x03), // block value width: 1 -> 2
		flip(delta, 24, 0x01),               // stateCRC corrupted
		flip(delta, 28, 0x01),               // bodyLen lies by one
		flip(full, deltaHeaderLen+4, 0x01),  // embedded snapshot version: 3 -> 2
		flip(full, len(full)-2, 0xff),       // frame trailer corrupted
	}
}

// TestDeltaSeedCorpus pins the checked-in seed corpus for FuzzDeltaFrame
// to deltaFrameSeeds(), so the regression set that CI fuzzes from is the
// one this file describes. Regenerate with
//
//	go test ./internal/collect/ -run TestDeltaSeedCorpus -update-delta-corpus
func TestDeltaSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDeltaFrame")
	seeds := deltaFrameSeeds()

	if *updateDeltaCorpus {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, deltaCorpusEntry(seed), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %d corpus entries in %s", len(seeds), dir)
		return
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing (run with -update-delta-corpus): %v", err)
	}
	if len(entries) != len(seeds) {
		t.Fatalf("corpus has %d entries, seeds define %d: rerun with -update-delta-corpus",
			len(entries), len(seeds))
	}
	for i, seed := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("corpus entry missing: %v", err)
		}
		if !bytes.Equal(got, deltaCorpusEntry(seed)) {
			t.Fatalf("%s is stale: rerun with -update-delta-corpus", name)
		}
	}
}

// deltaCorpusEntry renders one seed in the go fuzz corpus file format.
func deltaCorpusEntry(data []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
}
