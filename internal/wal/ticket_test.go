package wal

import (
	"errors"
	"sync"
	"testing"
	"time"

	"tinystm/internal/txn"
)

// Tests of the channel-free ticket, of the owner a ticket can be claimed
// for, and of what the flusher costs and counts per batch.

// TestTicketWaitVsResolve hammers the one race the ticket has: waiters
// parking (or polling past the flag) while the resolver publishes the
// outcome. A lost wake-up hangs the round (the test times out), a second
// release of the ticket's counter panics, and -race sees any unordered
// access to the outcome.
func TestTicketWaitVsResolve(t *testing.T) {
	const rounds, waiters = 2000, 3
	want := errors.New("outcome")
	for r := 0; r < rounds; r++ {
		p := newPending(0, uint64(r))
		var wg sync.WaitGroup
		wg.Add(waiters + 1)
		for w := 0; w < waiters; w++ {
			go func() {
				defer wg.Done()
				if err := p.Wait(); err != want {
					t.Errorf("round %d: Wait = %v, want the resolved outcome", r, err)
				}
			}()
		}
		go func() {
			defer wg.Done()
			p.resolve(want)
		}()
		wg.Wait()
		if !p.Done() {
			t.Fatalf("round %d: Done is false after resolve", r)
		}
	}
}

// TestTicketAllocs pins what a ticket costs: Append of a record that fits
// inline is its single allocation, and waiting on a resolved ticket is
// free.
func TestTicketAllocs(t *testing.T) {
	l, err := open(Config{Dir: "wal", FS: NewMemFS()}) // no flusher: appends just stage
	if err != nil {
		t.Fatal(err)
	}
	ops := []txn.RedoOp{put(1, 10), put(2, 20)}
	if n := testing.AllocsPerRun(200, func() { l.Append(0, 1, ops) }); n != 1 {
		t.Errorf("Append of %d ops: %v allocs, want 1 (the ticket)", len(ops), n)
	}
	p := l.Append(0, 2, ops[:1])
	l.commitBatch(l.takeBatch())
	if !p.Done() {
		t.Fatal("ticket unresolved after its batch committed")
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Wait after resolve: %v allocs, want 0", n)
	}
}

// TestBatchLoopAllocs: once its scratch has grown to the batch size, one
// drain — take the staged tickets, sort them, encode one frame, write,
// fsync, resolve — allocates nothing.
func TestBatchLoopAllocs(t *testing.T) {
	l, err := open(Config{Dir: "wal", FS: NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	const runs, perBatch = 200, 4
	tickets := make([]Pending, (runs+2)*perBatch) // AllocsPerRun warms up with one extra run
	next := 0
	drain := func() {
		for i := 0; i < perBatch; i++ {
			p := &tickets[next]
			p.wg.Add(1)
			p.inline[0] = put(uint64(next), 1)
			p.rec = Record{TS: uint64(len(tickets) - next), Ops: p.inline[:1]} // staged against timestamp order
			next++
			l.push(p)
		}
		l.commitBatch(l.takeBatch())
	}
	drain()
	if n := testing.AllocsPerRun(runs, drain); n != 0 {
		t.Errorf("steady-state takeBatch+commitBatch of %d records: %v allocs, want 0", perBatch, n)
	}
	for i := range tickets[:next] {
		if !tickets[i].Done() || tickets[i].err != nil {
			t.Fatalf("ticket %d: done=%v err=%v", i, tickets[i].Done(), tickets[i].err)
		}
	}
	if st := l.Stats(); st.Batches != uint64(next/perBatch) {
		t.Errorf("Batches = %d after %d drains", st.Batches, next/perBatch)
	}
}

// TestOwnerToldOncePerBatch: a batch holding several tickets of one owner
// tells it once, after every one of them has resolved; an owner with no
// ticket in a batch is not told; and a steady-state pass that tells owners
// still allocates nothing.
func TestOwnerToldOncePerBatch(t *testing.T) {
	l, err := open(Config{Dir: "wal", FS: NewMemFS()}) // no flusher: the test drains
	if err != nil {
		t.Fatal(err)
	}
	var mine []*Pending
	var a, b Owner
	told := map[*Owner]int{}
	a.Resolved = func() {
		told[&a]++
		for i, p := range mine {
			if !p.Done() {
				t.Errorf("owner told with its ticket %d of the batch unresolved", i)
			}
		}
	}
	b.Resolved = func() { told[&b]++ }
	for i := range 3 {
		p := l.Append(0, uint64(i+1), []txn.RedoOp{put(uint64(i), 1)})
		if !p.Claim(&a) {
			t.Fatalf("Claim of an open ticket refused")
		}
		mine = append(mine, p)
	}
	l.Append(0, 4, []txn.RedoOp{put(9, 1)}).Claim(&b)
	l.Append(0, 5, []txn.RedoOp{put(10, 1)}) // nobody's
	l.commitBatch(l.takeBatch())
	if told[&a] != 1 || told[&b] != 1 {
		t.Fatalf("one batch told a %d and b %d times, want once each", told[&a], told[&b])
	}
	mine = mine[:0]
	l.Append(0, 6, []txn.RedoOp{put(11, 1)}).Claim(&b)
	l.commitBatch(l.takeBatch())
	if told[&a] != 1 || told[&b] != 2 {
		t.Fatalf("a batch of b's alone told a %d and b %d times in total, want 1 and 2", told[&a], told[&b])
	}

	var c Owner
	calls := 0
	c.Resolved = func() { calls++ }
	tickets := make([]Pending, 2*202) // AllocsPerRun warms up with one extra run
	next := 0
	drain := func() {
		for range 2 {
			p := &tickets[next]
			p.wg.Add(1)
			p.inline[0] = put(uint64(next), 1)
			p.rec = Record{TS: uint64(next + 10), Ops: p.inline[:1]}
			p.Claim(&c)
			next++
			l.push(p)
		}
		l.commitBatch(l.takeBatch())
	}
	drain()
	if n := testing.AllocsPerRun(200, drain); n != 0 {
		t.Errorf("a drain that tells an owner: %v allocs, want 0", n)
	}
	if calls != next/2 {
		t.Errorf("owner told %d times over %d two-ticket batches", calls, next/2)
	}
}

// TestClaimAfterResolve: a resolved ticket refuses a claim, so its holder
// knows nobody will be told; a claimed ticket refuses a second claim.
func TestClaimAfterResolve(t *testing.T) {
	l, err := open(Config{Dir: "wal", FS: NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	o := Owner{Resolved: func() { t.Error("owner told about a ticket it never claimed") }}
	p := l.Append(0, 1, []txn.RedoOp{put(1, 1)})
	l.commitBatch(l.takeBatch())
	if p.Claim(&o) {
		t.Fatal("Claim of a resolved ticket succeeded")
	}
	if !p.Done() || p.Wait() != nil {
		t.Fatalf("refused claim changed the outcome: done=%v err=%v", p.Done(), p.Wait())
	}
	l.Append(0, 2, []txn.RedoOp{put(2, 2)})
	l.commitBatch(l.takeBatch())

	var first Owner
	first.Resolved = func() {}
	q := l.Append(0, 3, []txn.RedoOp{put(3, 3)})
	if !q.Claim(&first) || q.Claim(&o) {
		t.Fatal("an open ticket took a second claim, or refused the first")
	}
	l.commitBatch(l.takeBatch())
}

// TestClaimVsResolve hammers the ticket's one race besides the waiters':
// a claim landing while the resolver swaps the outcome in. Exactly one
// side must end up answering for the ticket — the owner, told once, if
// the claim won; the claimer, seeing the outcome, if it lost.
func TestClaimVsResolve(t *testing.T) {
	l, err := open(Config{Dir: "wal", FS: NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	var told int
	var p *Pending
	o := Owner{}
	o.Resolved = func() {
		told++
		if !p.Done() {
			t.Error("owner told before its ticket resolved")
		}
	}
	for r := range 5000 {
		told = 0
		p = newPending(0, uint64(r))
		var claimed bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); claimed = p.Claim(&o) }()
		go func() { defer wg.Done(); l.resolveBatch([]*Pending{p}, nil) }()
		wg.Wait()
		if claimed != (told == 1) || told > 1 {
			t.Fatalf("round %d: claimed=%v, owner told %d times", r, claimed, told)
		}
		if !claimed && !p.Done() {
			t.Fatalf("round %d: claim refused on an open ticket", r)
		}
	}
}

// TestCloseTellsOwners: tickets still staged when the log closes resolve
// with ErrLogClosed, and their owners are told, so nothing that waits to
// be told hangs across a shutdown.
func TestCloseTellsOwners(t *testing.T) {
	l, err := open(Config{Dir: "wal", FS: NewMemFS()}) // no flusher: every append stays staged
	if err != nil {
		t.Fatal(err)
	}
	var ps []*Pending
	told := 0
	o := Owner{Resolved: func() {
		told++
		for _, p := range ps {
			if err := p.Wait(); !errors.Is(err, ErrLogClosed) {
				t.Errorf("straggler resolved with %v, want ErrLogClosed", err)
			}
		}
	}}
	for i := range 3 {
		p := l.Append(0, uint64(i+1), []txn.RedoOp{put(uint64(i), 1)})
		p.Claim(&o)
		ps = append(ps, p)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if told != 1 {
		t.Fatalf("Close told the owner of 3 stragglers %d times, want once", told)
	}
}

// TestBarrierDrainIsNotABatch: Batches counts drains that reached disk, so
// a Flush (or Rotate) with nothing staged must leave it alone — counting
// barriers understates records per batch.
func TestBarrierDrainIsNotABatch(t *testing.T) {
	l := openTest(t, NewMemFS(), "wal", Config{})
	defer l.Close()
	if err := l.Append(0, 1, []txn.RedoOp{put(1, 10)}).Wait(); err != nil {
		t.Fatal(err)
	}
	before := l.Stats()
	if before.Batches != 1 {
		t.Fatalf("Batches = %d after one durable record, want 1", before.Batches)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if after := l.Stats(); after.Batches != before.Batches {
		t.Errorf("Batches went %d -> %d across a Flush and a Rotate of an idle log", before.Batches, after.Batches)
	}
}

// within fails the test unless f returns in time: "does not block behind
// X" is only observable as "returns while X is still blocked".
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestHousekeepingDoesNotStallTheLog: truncating sealed segments and
// reading the counters take no lock the flusher needs. With
// DropSegmentsBefore parked inside its directory fsync an append still
// becomes durable, and with the flusher parked inside an fsync Stats still
// answers.
func TestHousekeepingDoesNotStallTheLog(t *testing.T) {
	fs := NewMemFS()
	l := openTest(t, fs, "wal", Config{})
	defer l.Close()
	if err := l.Append(0, 1, []txn.RedoOp{put(1, 10)}).Wait(); err != nil {
		t.Fatal(err)
	}
	sealed, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}

	inDirSync, releaseDir := fs.HoldSyncDir()
	defer releaseDir()
	dropped := make(chan error, 1)
	go func() { dropped <- l.DropSegmentsBefore(sealed) }()
	<-inDirSync
	within(t, "Stats during a truncation", func() {
		if st := l.Stats(); st.Segment != sealed {
			t.Errorf("Stats().Segment = %d, want %d", st.Segment, sealed)
		}
	})
	within(t, "Append.Wait during a truncation", func() {
		if err := l.Append(0, 2, []txn.RedoOp{put(2, 20)}).Wait(); err != nil {
			t.Errorf("append beside a truncation: %v", err)
		}
	})
	select {
	case err := <-dropped:
		t.Fatalf("DropSegmentsBefore returned (%v) with its directory sync still held", err)
	default:
	}
	releaseDir()
	if err := <-dropped; err != nil {
		t.Fatalf("DropSegmentsBefore: %v", err)
	}

	inSync, releaseSync := fs.HoldSync()
	defer releaseSync()
	p := l.Append(0, 3, []txn.RedoOp{put(3, 30)})
	<-inSync
	within(t, "Stats during an fsync", func() { l.Stats() })
	if p.Done() {
		t.Fatal("ticket resolved with its fsync still held")
	}
	releaseSync()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	// Record 1 went with its segment (no checkpoint here); what was
	// appended beside the truncation and behind the held fsync is there.
	state, _ := replayTest(t, fs, "wal")
	if len(state) != 2 || state[2] != 20 || state[3] != 30 {
		t.Fatalf("replayed state = %v, want {2:20 3:30}", state)
	}
}
