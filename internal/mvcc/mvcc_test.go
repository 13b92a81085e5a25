package mvcc

import (
	"sync"
	"sync/atomic"
	"testing"
)

// newTestStore builds a store and registers one far-future snapshot reader
// in slot 1, the state in which the STM's commits publish (with no
// registered snapshot they skip the store altogether). Tests that need
// precise pinning behavior manage the registry themselves.
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
	// Address 100 had no written record, so the entry starts at 0, not at
	// the stripe's 5. A record of 0 means every write of the word so far
	// was unversioned, made when no snapshot was registered; a registered
	// snapshot therefore starts at or after the write that made 11
	// current, and no snapshot that can ask sees a wrong [0, 5).
	if v, res := s.Read(7, 100, 4); res != ReadHit || v != 11 {
		t.Fatalf("Read(snap=4) = (%d, %v), want the record-started hit (11, hit)", v, res)
	}
	// An address never stamped was never written while a snapshot was
	// registered: any write past a registered snapshot stamps its word,
	// so its live value is the value at every registered snapshot.
	if _, res := s.Read(7, 999, 6); res != ReadLiveValid {
		t.Fatalf("Read of an unstamped address = %v, want live-valid", res)
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
	// No snapshot registered: the STM's commit at 5 skips the sidecar, so
	// nothing is stamped, published or retained.
	if n := s.ActiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots registered in a fresh store", n)
	}
	if w := s.Written(10); w != 0 {
		t.Fatalf("written record %d before any versioned commit", w)
	}
	// A snapshot registering later starts at or after that commit, and
	// reads the unstamped word as live-valid however the stripe moved.
	s.Enter(0, 6)
	if _, res := s.Read(0, 10, 6); res != ReadLiveValid {
		t.Fatalf("Read(snap=6) = %v, want live-valid", res)
	}
	// Commits now see it and version: the supersede at 9 is retained, its
	// interval starting at the (empty) record, and stamps the word.
	s.Publish(9, []Version{{Stripe: 0, Addr: 10, Val: 101, From: 7}})
	if v, res := s.Read(0, 10, 6); res != ReadHit || v != 101 {
		t.Fatalf("Read(snap=6) after retention resumed = (%d, %v), want (101, hit)", v, res)
	}
	if p, _ := s.Counts(); p != 1 {
		t.Fatalf("published %d entries, want 1", p)
	}
	if w := s.Written(10); w != 9 {
		t.Fatalf("written record %d after the versioned commit, want 9", w)
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

// TestUnversionedWordsStayLiveValid: words no commit ever stamped read as
// live-valid at every snapshot, while publishers on other goroutines
// stamp and retain the words that share their stripes, registering a
// snapshot around each versioned commit the way the STM's commits decide.
func TestUnversionedWordsStayLiveValid(t *testing.T) {
	const cold, stripes = 64, 8 // words [0, cold) are never written
	s := New(Config{Words: 1 << 12, Shards: 4, Budget: 32})
	s.EnsureSlots(4)
	var clock atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for n := uint64(0); n < 2000; n++ {
				s.Enter(p, clock.Load())
				ts := clock.Add(1)
				a := cold + (n*2+uint64(p))%(4*cold)
				s.Publish(ts, []Version{{Stripe: a % stripes, Addr: a, Val: n, From: ts - 1}})
				s.Leave(p)
			}
		}(p)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := uint64(0); n < 4000; n++ {
				a := n % cold
				if _, res := s.Read(a%stripes, a, clock.Load()); res != ReadLiveValid {
					t.Errorf("Read of never-stamped word %d = %v, want live-valid", a, res)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
