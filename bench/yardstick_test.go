//go:build linux

package main

import (
	"testing"

	"tinystm/internal/kvclient"
)

// The generator checks what it can on every response (a get finds its key,
// a scan returns scanLimit pairs, a batchget of the ledger sums to
// ledgerSum). The yardstick has no store, so its constants must satisfy
// every one of those checks, on both surfaces, for every kind of op.
func TestYardstickAnswersEveryOp(t *testing.T) {
	y, err := listenYardstick()
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	targets := map[string]target{
		"binary": binTarget{kvclient.New(y.proto.Addr().String(), kvclient.Options{MaxInflight: 4})},
		"http":   newHTTPTarget(y.http.Addr().String()),
	}
	for name, tg := range targets {
		for k := opKind(0); k < nOpKinds; k++ {
			o := op{kind: k, key: 7, key2: 9, val: 3, old: 1}
			if err := send(tg, o); err != nil {
				t.Errorf("%s %s: %v", name, opNames[k], err)
			}
		}
		// A get of a ledger key outside a batch answers the ledger's value.
		if v, found, err := tg.get(ledgerBase + 5); err != nil || !found || v != ledgerInit(5) {
			t.Errorf("%s get ledger key 5: %d found=%v err=%v, want %d", name, v, found, err, ledgerInit(5))
		}
		tg.close()
	}
}

func TestPairedRatio(t *testing.T) {
	// Three pairs of slices. The host is twice as slow during the second
	// pair, which slows both servers and leaves every pair's ratio at 2; a
	// trailing sut slice without a partner is ignored.
	sut := duetSide{roundMs: []float64{2, 2, 2, 4, 4, 2, 9}, slice: []int{0, 0, 0, 2, 2, 4, 6}}
	ref := duetSide{roundMs: []float64{1, 1, 2, 2, 2, 1}, slice: []int{1, 1, 3, 3, 3, 5}}
	ratio, pairs := pairedRatio(sut, ref)
	if ratio != 2 || pairs != 3 {
		t.Errorf("pairedRatio = %v over %d pairs, want 2 over 3", ratio, pairs)
	}
	if _, pairs := pairedRatio(duetSide{}, duetSide{}); pairs != 0 {
		t.Errorf("an empty duet has %d pairs", pairs)
	}
}
