package obs

import (
	"sync"
	"testing"

	"tinystm/internal/txn"
)

func TestRecorderCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 16}, {1, 16}, {16, 16}, {17, 32}, {100, 128}, {4096, 4096}, {5000, 8192},
	} {
		if got := NewRecorder(tc.in, 1).Cap(); got != tc.want {
			t.Errorf("NewRecorder(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
	if got := NewRecorder(16, 0).SampleEvery(); got != 1 {
		t.Errorf("every floor: got %d, want 1", got)
	}
}

func TestRecorderWraparound(t *testing.T) {
	r := NewRecorder(16, 1)
	const total = 40
	for i := 1; i <= total; i++ {
		r.Record(Event{TimeUnixNano: int64(i), Kind: EvCommit, Slot: uint32(i), Attempt: 1, DurNs: uint64(i) * 10})
	}
	if r.Recorded() != total {
		t.Fatalf("Recorded = %d, want %d", r.Recorded(), total)
	}
	got := r.Dump(0)
	if len(got) != 16 {
		t.Fatalf("Dump retained %d events, want 16", len(got))
	}
	// Oldest-first, the last 16 sequence numbers, payloads intact.
	for i, e := range got {
		wantSeq := uint64(total - 16 + 1 + i)
		if e.Seq != wantSeq {
			t.Fatalf("event %d: seq %d, want %d", i, e.Seq, wantSeq)
		}
		if e.TimeUnixNano != int64(wantSeq) || e.Slot != uint32(wantSeq) || e.DurNs != wantSeq*10 {
			t.Fatalf("event %d: payload %+v does not match seq %d", i, e, wantSeq)
		}
	}

	if lim := r.Dump(4); len(lim) != 4 || lim[0].Seq != total-3 || lim[3].Seq != total {
		t.Fatalf("Dump(4) = seqs %v, want [37 38 39 40]", seqsOf(lim))
	}
}

func seqsOf(es []Event) []uint64 {
	out := make([]uint64, len(es))
	for i, e := range es {
		out[i] = e.Seq
	}
	return out
}

func TestRecorderRoundTripFields(t *testing.T) {
	r := NewRecorder(16, 1)
	in := Event{
		TimeUnixNano: 1_700_000_000_123_456_789,
		Kind:         EvAbort,
		Cause:        txn.AbortSnapshotTooOld,
		Slot:         12345,
		Attempt:      7,
		DurNs:        987_654,
		Locks:        1 << 20,
		Shifts:       4,
		Hier:         64,
	}
	r.Record(in)
	out := r.Dump(0)
	if len(out) != 1 {
		t.Fatalf("dump len %d", len(out))
	}
	in.Seq = 1
	if out[0] != in {
		t.Fatalf("round trip mangled the event:\n got %+v\nwant %+v", out[0], in)
	}
}

func TestRecorderSamplingRate(t *testing.T) {
	r := NewRecorder(16, 4)
	hits := 0
	for i := 0; i < 100; i++ {
		if r.Sample() {
			hits++
		}
	}
	if hits != 25 {
		t.Fatalf("every=4: %d/100 sampled, want 25", hits)
	}
	// every=1 samples everything.
	r1 := NewRecorder(16, 1)
	for i := 0; i < 10; i++ {
		if !r1.Sample() {
			t.Fatal("every=1 must sample every transaction")
		}
	}
}

func TestRecorderSkipsTornSlot(t *testing.T) {
	r := NewRecorder(16, 1)
	for i := 1; i <= 8; i++ {
		r.Record(Event{Slot: uint32(i)})
	}
	// Simulate a writer caught mid-store on seq 3: ver is parked at 0.
	r.slots[2].ver.Store(0)
	got := r.Dump(0)
	if len(got) != 7 {
		t.Fatalf("dump returned %d events, want 7 (torn slot skipped)", len(got))
	}
	for _, e := range got {
		if e.Seq == 3 {
			t.Fatal("torn slot 3 leaked into the dump")
		}
	}
}

// TestRecorderConcurrent interleaves writers and dumpers under -race: every
// dumped event must be internally consistent (payload matches its Seq),
// which the seqlock guarantees even while slots are being overwritten.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if r.Sample() {
					r.Record(Event{Kind: EvCommit, DurNs: 1})
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		for _, e := range r.Dump(0) {
			if e.Kind != EvCommit || e.DurNs != 1 {
				t.Errorf("torn event leaked: %+v", e)
			}
		}
	}
	close(stop)
	wg.Wait()
}
