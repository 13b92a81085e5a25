package mvcc

import (
	"sync"
	"testing"
)

// newTestStore builds a store and registers one far-past snapshot reader
// in slot 0 so publications are retained (with no registered snapshot the
// store intentionally skips version retention). Tests that need precise
// pinning behavior manage the registry themselves.
func newTestStore(t *testing.T, shards, budget int) *Store {
	t.Helper()
	s := New(Config{Words: 1 << 16, Shards: shards, Budget: budget})
	s.EnsureSlots(2)
	s.Enter(1, 1<<40) // far-future reader: retains without pinning
	return s
}

func TestPublishAndRead(t *testing.T) {
	s := newTestStore(t, 4, 16)
	// Address 100 on stripe 7: value 11 current [5, 9), superseded at 9.
	s.Publish(9, []Version{{Stripe: 7, Addr: 100, Val: 11, From: 5}})

	if v, res := s.Read(7, 100, 6); res != ReadHit || v != 11 {
		t.Fatalf("Read(snap=6) = (%d, %v), want (11, hit)", v, res)
	}
	if v, res := s.Read(7, 100, 5); res != ReadHit || v != 11 {
		t.Fatalf("Read(snap=5) = (%d, %v), want interval-start hit", v, res)
	}
	if _, res := s.Read(7, 100, 9); res != ReadLiveValid {
		// The supersede at 9 wrote the current live value: snapshots >= 9
		// may serve it straight from memory.
		t.Fatalf("Read(snap=9) = %v, want live-valid (live value owns 9)", res)
	}
	if _, res := s.Read(7, 100, 4); res != ReadMiss {
		t.Fatalf("Read(snap=4) = %v; 4 predates the interval, want miss", res)
	}
	if _, res := s.Read(7, 999, 6); res != ReadMiss {
		t.Fatalf("Read of unpublished address = %v, want miss", res)
	}
	if p, tr := s.Counts(); p != 1 || tr != 0 {
		t.Fatalf("Counts = (%d, %d), want (1, 0)", p, tr)
	}
}

func TestReadNewestMatchingInterval(t *testing.T) {
	s := newTestStore(t, 1, 16)
	// Successive versions of one address: 1 current [1,4), 2 current [4,8).
	s.Publish(4, []Version{{Stripe: 0, Addr: 50, Val: 1, From: 1}})
	s.Publish(8, []Version{{Stripe: 0, Addr: 50, Val: 2, From: 4}})
	for snap, want := range map[uint64]uint64{1: 1, 3: 1, 4: 2, 7: 2} {
		if v, res := s.Read(0, 50, snap); res != ReadHit || v != want {
			t.Fatalf("Read(snap=%d) = (%d, %v), want (%d, hit)", snap, v, res, want)
		}
	}
	if _, res := s.Read(0, 50, 8); res != ReadLiveValid {
		t.Fatalf("Read(snap=8) = %v, want live-valid", res)
	}
}

func TestWrittenRecordTightensIntervals(t *testing.T) {
	s := newTestStore(t, 1, 16)
	// Address X superseded at 5 (interval [2,5)). Another address under
	// the same stripe commits at 7, so X's next supersede at 9 sees
	// stripe version 7 — conservatively [7,9). The written record must
	// tighten it to the exact [5,9).
	s.Publish(5, []Version{{Stripe: 3, Addr: 10, Val: 100, From: 2}})
	s.Publish(7, []Version{{Stripe: 3, Addr: 11, Val: 200, From: 4}})
	s.Publish(9, []Version{{Stripe: 3, Addr: 10, Val: 101, From: 7}})
	if v, res := s.Read(3, 10, 6); res != ReadHit || v != 101 {
		t.Fatalf("Read(snap=6) = (%d, %v), want tightened hit (101, hit)", v, res)
	}
	if v, res := s.Read(3, 10, 3); res != ReadHit || v != 100 {
		t.Fatalf("Read(snap=3) = (%d, %v), want (100, hit)", v, res)
	}
}

func TestBirthProvesLiveValid(t *testing.T) {
	s := newTestStore(t, 1, 16)
	// A freshly allocated word is born at 6: no entry is retained, but
	// any snapshot >= 6 may serve the live word even when the stripe
	// version has moved past it.
	s.Born(6, 70, 1)
	if p, _ := s.Counts(); p != 0 {
		t.Fatalf("birth retained %d entries, want 0", p)
	}
	if _, res := s.Read(0, 70, 8); res != ReadLiveValid {
		t.Fatalf("Read(birth, snap=8) = %v, want live-valid", res)
	}
	if _, res := s.Read(0, 70, 5); res != ReadMiss {
		t.Fatalf("Read(birth, snap=5) = %v, want miss (predates the birth)", res)
	}
	// The first supersede's interval starts exactly at the birth.
	s.Publish(12, []Version{{Stripe: 0, Addr: 70, Val: 1, From: 11}})
	if v, res := s.Read(0, 70, 7); res != ReadHit || v != 1 {
		t.Fatalf("Read(snap=7) = (%d, %v), want birth-tightened hit (1, hit)", v, res)
	}
}

func TestNoSnapshotSkipsRetention(t *testing.T) {
	s := New(Config{Words: 1 << 16, Shards: 1, Budget: 16})
	s.EnsureSlots(1)
	// No snapshot registered: publication maintains written[] only.
	s.Publish(5, []Version{{Stripe: 0, Addr: 10, Val: 100, From: 2}})
	if p, _ := s.Counts(); p != 0 {
		t.Fatalf("published %d entries with no snapshot registered", p)
	}
	if r := s.Retained(); r != 0 {
		t.Fatalf("retained %d entries with no snapshot registered", r)
	}
	// The written record still proves live-validity for later snapshots.
	if _, res := s.Read(0, 10, 6); res != ReadLiveValid {
		t.Fatalf("Read(snap=6) = %v, want live-valid", res)
	}
	// An older snapshot misses conservatively (never wrong data).
	if _, res := s.Read(0, 10, 4); res != ReadMiss {
		t.Fatalf("Read(snap=4) = %v, want miss", res)
	}
	// Once a snapshot registers, retention resumes.
	s.Enter(0, 6)
	s.Publish(9, []Version{{Stripe: 0, Addr: 10, Val: 101, From: 5}})
	if v, res := s.Read(0, 10, 6); res != ReadHit || v != 101 {
		t.Fatalf("Read(snap=6) after retention resumed = (%d, %v), want (101, hit)", v, res)
	}
}

func TestTrimRaisesHorizon(t *testing.T) {
	s := newTestStore(t, 1, 4)
	for ts := uint64(2); ts <= 20; ts += 2 {
		s.Publish(ts, []Version{{Stripe: 0, Addr: ts, Val: ts, From: ts - 1}})
	}
	if r := s.Retained(); r > 4 {
		t.Fatalf("retained %d versions over budget 4 with no pinning snapshot", r)
	}
	if h := s.Horizon(0); h == 0 {
		t.Fatal("trimming dropped versions without raising the horizon")
	}
	// A snapshot below the horizon must be told it is too old (address
	// choice: one with a written record newer than the snapshot).
	if _, res := s.Read(0, 2, 1); res != ReadTooOld {
		t.Fatalf("Read below the trim horizon = %v, want too-old", res)
	}
	if _, tr := s.Counts(); tr == 0 {
		t.Fatal("trimmed counter did not advance")
	}
}

func TestActiveSnapshotPinsVersions(t *testing.T) {
	s := New(Config{Words: 1 << 16, Shards: 1, Budget: 4})
	s.EnsureSlots(1)
	s.Enter(0, 3) // active snapshot at ts 3
	for ts := uint64(4); ts <= 12; ts++ {
		s.Publish(ts, []Version{{Stripe: 0, Addr: ts, Val: ts, From: ts - 1}})
	}
	// All versions have until > 3, so within the hard cap none may be
	// dropped: the snapshot still needs them.
	if h := s.Horizon(0); h > 3 {
		t.Fatalf("horizon %d advanced past the active snapshot at 3", h)
	}
	if r := s.Retained(); r <= 4 {
		t.Fatalf("retained %d; expected overshoot above budget to protect the snapshot", r)
	}
	// Past the hard cap (4*budget) trimming proceeds anyway.
	for ts := uint64(13); ts <= 40; ts++ {
		s.Publish(ts, []Version{{Stripe: 0, Addr: ts, Val: ts, From: ts - 1}})
	}
	if r := s.Retained(); r > 4*4 {
		t.Fatalf("retained %d versions beyond the hard cap", r)
	}
	// Once the pinning snapshot moves far ahead, the next publication
	// trims back to budget.
	s.Enter(0, 1<<40)
	s.Publish(41, []Version{{Stripe: 0, Addr: 41, Val: 41, From: 40}})
	if r := s.Retained(); r > 4 {
		t.Fatalf("retained %d versions after the pinning snapshot left", r)
	}
}

func TestSetBudget(t *testing.T) {
	s := newTestStore(t, 1, 8)
	if err := s.SetBudget(0); err == nil {
		t.Fatal("SetBudget(0) accepted")
	}
	if err := s.SetBudget(MaxBudget + 1); err == nil {
		t.Fatal("SetBudget over MaxBudget accepted")
	}
	if err := s.SetBudget(2); err != nil {
		t.Fatal(err)
	}
	for ts := uint64(2); ts <= 10; ts++ {
		s.Publish(ts, []Version{{Stripe: 0, Addr: ts, Val: ts, From: ts - 1}})
	}
	if r := s.Retained(); r > 2 {
		t.Fatalf("retained %d versions over the shrunk budget 2", r)
	}
}

func TestReset(t *testing.T) {
	s := newTestStore(t, 2, 2)
	for ts := uint64(2); ts <= 10; ts++ {
		s.Publish(ts, []Version{{Stripe: ts % 2, Addr: ts, Val: ts, From: ts - 1}})
	}
	s.Reset()
	if r := s.Retained(); r != 0 {
		t.Fatalf("retained %d versions after Reset", r)
	}
	if h := s.Horizon(0); h != 0 {
		t.Fatalf("horizon %d after Reset, want 0", h)
	}
	// The written array survives the reset (wiping it would make the
	// stop-the-world pause O(arena)); a stale record can only describe a
	// word not written since, whose live value is valid at any new-epoch
	// snapshot — so this reads live-valid, never a retained interval.
	if _, res := s.Read(0, 4, 9); res != ReadLiveValid {
		t.Fatalf("Read after Reset = %v, want live-valid (stale written record)", res)
	}
	if _, res := s.Read(0, 4, 3); res != ReadMiss {
		t.Fatalf("Read after Reset below the stale record = %v, want miss", res)
	}
}

func TestConcurrentPublishRead(t *testing.T) {
	s := newTestStore(t, 4, 128)
	// Each writer publishes a fixed run of fresh addresses inside its own
	// window, so the test stays within the store's 1<<16 words however
	// fast the host runs the writers relative to the reader.
	const perWriter = 4000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for n := uint64(0); n < perWriter; n++ {
				ts := n + 2
				s.Publish(ts, []Version{{Stripe: w, Addr: w*perWriter + n, Val: ts, From: ts - 1}})
			}
		}(uint64(w))
	}
	for i := uint64(0); i < 10000; i++ {
		s.Read(i%4, i%(4*perWriter), i)
	}
	wg.Wait()
}
