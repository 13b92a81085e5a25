package core_test

import (
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/mem"
	"tinystm/internal/obs"
	"tinystm/internal/txn"
)

// TestObsInstrumentation proves the observed atomic loop fills the
// commit/abort histograms and the flight recorder, and that detaching
// the hook stops recording.
func TestObsInstrumentation(t *testing.T) {
	space := mem.NewSpace(1 << 12)
	tm := core.MustNew(core.Config{Space: space})
	o := obs.NewTMObs(obs.NewRecorder(256, 1))
	tm.SetObs(o)
	if tm.Obs() != o {
		t.Fatal("Obs() does not return the installed hook")
	}

	tx := tm.NewTx()
	const addr = uint64(0)
	const n = 50
	for i := 0; i < n; i++ {
		tm.Atomic(tx, func(tx *core.Tx) { tx.Store(addr, tx.Load(addr)+1) })
	}
	cs := o.CommitNs.Snapshot()
	if cs.Count != n {
		t.Fatalf("commit histogram count = %d, want %d", cs.Count, n)
	}
	if cs.Sum == 0 || cs.Max == 0 {
		t.Fatal("commit durations were not timed")
	}

	// Force one explicit abort (Retry) and check it lands under its
	// cause; the block commits on its second attempt.
	tm.Atomic(tx, func(tx *core.Tx) {
		if o.AbortNs[txn.AbortExplicit].Snapshot().Count == 0 {
			tx.Retry()
		}
	})
	if got := o.AbortNs[txn.AbortExplicit].Snapshot().Count; got != 1 {
		t.Fatalf("explicit-abort histogram count = %d, want 1", got)
	}

	// Every block was sampled (every=1): the trace must hold commits with
	// durations and the TM's geometry.
	evs := o.Rec.Dump(0)
	if len(evs) == 0 {
		t.Fatal("flight recorder is empty")
	}
	p := tm.Params()
	var commits int
	for _, e := range evs {
		if e.Locks != p.Locks || uint(e.Shifts) != p.Shifts || e.Hier != p.Hier {
			t.Fatalf("event geometry (%d,%d,%d) != TM params %+v", e.Locks, e.Shifts, e.Hier, p)
		}
		if e.Kind == obs.EvCommit {
			commits++
			if e.DurNs == 0 {
				t.Fatal("commit event missing duration")
			}
		}
	}
	if commits == 0 {
		t.Fatal("no commit events recorded")
	}

	// Detach: no further recording.
	tm.SetObs(nil)
	tm.Atomic(tx, func(tx *core.Tx) { tx.Store(addr, 0) })
	if got := o.CommitNs.Snapshot().Count; got != cs.Count+1 {
		t.Fatalf("detached hook still recorded: %d", got)
	}
}

// TestAtomicEmptyDoesNotAllocate pins the merged retry loop's hot path:
// an empty atomic block costs no heap traffic, whether the observability
// hook is detached or installed with no sampled trace.
func TestAtomicEmptyDoesNotAllocate(t *testing.T) {
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 12)})
	tx := tm.NewTx()
	body := func(*core.Tx) {}
	for _, c := range []struct {
		name string
		hook *obs.TMObs
	}{
		{"nil hook", nil},
		{"hook installed, unsampled", obs.NewTMObs(nil)},
	} {
		tm.SetObs(c.hook)
		if n := testing.AllocsPerRun(1000, func() { tm.Atomic(tx, body) }); n != 0 {
			t.Errorf("%s: empty Atomic allocates %v times per run, want 0", c.name, n)
		}
	}
}
