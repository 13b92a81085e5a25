package tl2_test

import (
	"testing"

	"tinystm/internal/mem"
	"tinystm/internal/obs"
	"tinystm/internal/tl2"
)

// TestObsInstrumentation proves TL2's observed atomic loop fills the
// commit histogram and the flight recorder with its static geometry.
func TestObsInstrumentation(t *testing.T) {
	tm := tl2.MustNew(tl2.Config{Space: mem.NewSpace(1 << 12), Locks: 1 << 8, Shifts: 2})
	o := obs.NewTMObs(obs.NewRecorder(64, 1))
	tm.SetObs(o)
	if tm.Obs() != o {
		t.Fatal("Obs() does not return the installed hook")
	}

	tx := tm.NewTx()
	const n = 20
	for i := 0; i < n; i++ {
		tm.Atomic(tx, func(tx *tl2.Tx) { tx.Store(0, tx.Load(0)+1) })
	}
	if got := o.CommitNs.Snapshot().Count; got != n {
		t.Fatalf("commit histogram count = %d, want %d", got, n)
	}
	evs := o.Rec.Dump(0)
	if len(evs) == 0 {
		t.Fatal("flight recorder is empty")
	}
	for _, e := range evs {
		if e.Locks != 1<<8 || e.Shifts != 2 || e.Hier != 0 {
			t.Fatalf("event geometry (%d,%d,%d), want (256,2,0)", e.Locks, e.Shifts, e.Hier)
		}
	}

	tm.SetObs(nil)
	tm.Atomic(tx, func(tx *tl2.Tx) { tx.Store(0, 0) })
	if got := o.CommitNs.Snapshot().Count; got != n {
		t.Fatalf("detached hook still recorded: %d", got)
	}
}

// TestAtomicEmptyDoesNotAllocate pins the merged retry loop's hot path:
// an empty atomic block costs no heap traffic, whether the observability
// hook is detached or installed with no sampled trace.
func TestAtomicEmptyDoesNotAllocate(t *testing.T) {
	tm := tl2.MustNew(tl2.Config{Space: mem.NewSpace(1 << 12), Locks: 1 << 8})
	tx := tm.NewTx()
	body := func(*tl2.Tx) {}
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
