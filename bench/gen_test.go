//go:build linux

package main

import (
	"math"
	"testing"
)

// The op stream is the benchmark's input: parent and change are only
// comparable if the same (workload, seed) always yields the same requests.
// These hashes pin the first 1000 ops per workload for seed 1; a change to
// the generator that moves them invalidates every recorded baseline.
var pinnedStreams = map[string]uint64{
	"read-bin":    0xa0d04231826198d4,
	"write-wal":   0x1efb2cda514ecd57,
	"storm-tuned": 0x34a5c8be1af44833,
	"mixed-http":  0xde3358b460868948,
}

func TestStreamIsPinnedAndSeeded(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		got := newGen(sp, 1).streamHash(1000)
		if want := pinnedStreams[sp.name]; got != want {
			t.Errorf("%s seed 1: stream hash %#x, pinned %#x", sp.name, got, want)
		}
		if again := newGen(sp, 1).streamHash(1000); again != got {
			t.Errorf("%s: same seed gave two streams", sp.name)
		}
		if other := newGen(sp, 2).streamHash(1000); other == got {
			t.Errorf("%s: seed 2 repeats seed 1's stream", sp.name)
		}
	}
}

func TestMixMatchesSpec(t *testing.T) {
	const n = 100000
	for i := range specs {
		sp := &specs[i]
		g := newGen(sp, 1)
		var count [nOpKinds]int
		for j := uint64(0); j < n; j++ {
			o := g.at(j)
			count[o.kind]++
			switch o.kind {
			case opGet, opPut, opAdd, opCAS:
				if o.key >= sp.keys {
					t.Fatalf("%s op %d: key %d outside the %d-key space", sp.name, j, o.key, sp.keys)
				}
			case opTransfer:
				if o.key == o.key2 || o.key >= ledgerKeys || o.key2 >= ledgerKeys {
					t.Fatalf("%s op %d: transfer %d -> %d is not two distinct ledger keys", sp.name, j, o.key, o.key2)
				}
			}
		}
		for k := opKind(0); k < nOpKinds; k++ {
			got := 100 * float64(count[k]) / n
			if math.Abs(got-float64(sp.mix[k])) > 1 {
				t.Errorf("%s: %s is %.2f%% of the stream, spec says %d%%", sp.name, opNames[k], got, sp.mix[k])
			}
		}
	}
}

// A skewed workload must actually be skewed: with theta 0.99 over 1024
// keys the hottest key draws far more than its uniform share.
func TestZipfIsSkewed(t *testing.T) {
	g := newGen(specByName("storm-tuned"), 1)
	hot, n := 0, 0
	for j := uint64(0); j < 50000; j++ {
		if o := g.at(j); o.kind == opAdd || o.kind == opGet || o.kind == opCAS {
			n++
			if o.key == 0 {
				hot++
			}
		}
	}
	if share := float64(hot) / float64(n); share < 0.05 {
		t.Errorf("hottest of 1024 keys drew %.3f of the accesses; theta 0.99 should give it over 0.05", share)
	}
}
