package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"tinystm/internal/mem"
	"tinystm/internal/mvcc"
)

// Versions on demand (the argument above mvcc.Store.Publish): a commit
// that sees no registered snapshot leaves the sidecar alone, and snapshots
// that register afterwards must still read exactly what was committed at
// their start.

// whileRegistered runs fn with a snapshot registered on a descriptor of
// its own when reader is set, so every commit fn makes is versioned; with
// reader unset it just runs fn, with no snapshot registered.
func whileRegistered(t testing.TB, tm *TM, reader bool, fn func()) {
	t.Helper()
	if !reader {
		if n := tm.ActiveSnapshots(); n != 0 {
			t.Fatalf("%d snapshots registered, want none", n)
		}
		fn()
		return
	}
	r := tm.NewTx()
	r.BeginSnap()
	fn()
	if !r.Commit() {
		t.Fatal("the registered reader's snapshot failed to commit")
	}
	r.Release()
}

const (
	uvSlots    = 16
	uvLocks    = 1 << 4 // every stripe is shared by many words
	uvMaxClock = 1 << 12
	uvWriters  = 2
)

// uvWrite is one word a committed writer stored, at the commit's ts.
type uvWrite struct{ ts, addr, val uint64 }

// uvScan is what one snapshot scan read at its start: reads[:n] hold
// (address, value) pairs.
type uvScan struct {
	start uint64
	n     int
	reads [3 * uvSlots][2]uint64
}

// TestSnapshotAfterUnversionedWindow: writers first commit with no
// snapshot registered — replacing nodes (allocate, initialise, link, free
// the old one, so freed blocks are reclaimed and reused) and updating
// nodes in place — so no word of the structure carries a written record.
// Then snapshot scans register while the writers go on over 2^4 locks,
// so aliasing writes keep moving every stripe past the scans' starts.
// Every scan must read exactly the state the commit log puts at its
// start, and no scan may restart on a sidecar miss: one that met an
// unstamped word it could not prove live would miss on every attempt
// while the writers run. A scan may still restart when it gives up
// waiting on a stripe a writer holds (snapSpinBudget), which depends on
// the scheduler alone; an aborted read tells the two apart by asking the
// sidecar again, since a miss persists. Variants cross a clock roll-over
// or a Reconfigure between the two phases.
func TestSnapshotAfterUnversionedWindow(t *testing.T) {
	for _, d := range []Design{WriteBack, WriteThrough} {
		for _, h := range []uint64{1, 4} {
			for _, across := range []string{"plain", "rollover", "reconfigure"} {
				t.Run(fmt.Sprintf("%v/h=%d/%s", d, h, across), func(t *testing.T) {
					runUnversionedWindow(t, d, h, across)
				})
			}
		}
	}
}

func runUnversionedWindow(t *testing.T, d Design, h uint64, across string) {
	unversioned, covered, race := 600, 200, 400
	if testing.Short() {
		unversioned, covered, race = 300, 50, 200
	}
	tm, _ := newTestTM(t, d, func(c *Config) {
		c.Space = mem.NewSpace(1 << 16)
		c.Locks = uvLocks
		c.Hier = h
		c.Snapshots = true
		c.SnapshotBudget = 4096 // no too-old restarts
		if across == "rollover" {
			c.MaxClock = uvMaxClock
		}
	})
	withSidecarShards(tm, 4)
	var root uint64
	setup := tm.NewTx()
	tm.Atomic(setup, func(tx *Tx) {
		root = tx.Alloc(uvSlots)
		for i := uint64(0); i < uvSlots; i++ {
			n := tx.Alloc(2)
			tx.Store(n, 1)
			tx.Store(n+1, 2)
			tx.Store(root+i, n)
		}
	})
	setup.Release()

	// Phase 1, unversioned. The roll-over variant runs on until the clock
	// has wrapped and the new epoch holds unversioned commits too.
	var mu sync.Mutex
	allocated := map[uint64]int{}
	var wg sync.WaitGroup
	for w := 0; w < uvWriters; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			tx := tm.NewTx()
			defer tx.Release()
			uvWriter(tm, tx, root, w, 0, func(k int, n uint64) bool {
				if n != 0 {
					mu.Lock()
					allocated[n]++
					mu.Unlock()
				}
				if across == "rollover" {
					return tm.Stats().RollOvers == 0 || tm.ClockValue() < 64
				}
				return k < unversioned
			}, nil)
		}(uint64(w))
	}
	wg.Wait()
	st := tm.Stats()
	if st.VersionedCommits != 0 {
		t.Fatalf("%d versioned commits with no snapshot ever registered", st.VersionedCommits)
	}
	reused := 0
	for _, c := range allocated {
		if c > 1 {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("phase 1 reused no freed block")
	}
	if across == "rollover" && st.RollOvers == 0 {
		t.Fatal("phase 1 did not roll the clock over")
	}
	if across == "reconfigure" {
		if err := tm.Reconfigure(Params{Locks: uvLocks, Shifts: 1, Hier: h}); err != nil {
			t.Fatal(err)
		}
	}

	// The state at the boundary: the serial model's starting point.
	base := map[uint64]uint64{}
	tx := tm.NewTx()
	tm.AtomicRO(tx, func(tx *Tx) {
		for i := uint64(0); i < uvSlots; i++ {
			n := tx.Load(root + i)
			base[root+i], base[n], base[n+1] = n, tx.Load(n), tx.Load(n+1)
		}
	})
	tx.Release()
	for a := range base {
		if w := tm.mvcc.Written(a); w != 0 {
			t.Fatalf("word %d has written record %d after an unversioned window", a, w)
		}
	}
	before := tm.Stats()

	// Phase 2: snapshot scans under the writers, by two readers.
	//   - Reader 0 scans the whole structure and, once inside each scan,
	//     waits for commits that began under it, so its scans have
	//     commits under them however the host schedules. It stops after
	//     `covered` scans.
	//   - Reader 1 reads just the slots, never yielding, so on two
	//     processors its registrations come and go nanoseconds apart
	//     around the writers' commits. Once reader 0 is done it is the
	//     only reader, for the writers' last `race` commits each: a commit
	//     that consulted the registry before drawing its timestamp would
	//     now and then miss one of its snapshots that started below it.
	logs := make([][]uvWrite, uvWriters)
	var scans [2][]uvScan
	var done0, restarts, misses, commits, started atomic.Int64
	var writing atomic.Bool
	writing.Store(true)
	var readers sync.WaitGroup
	for r := range scans {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			tx := tm.NewTx()
			defer tx.Release()
			started.Add(1)
			for writing.Load() && (r == 1 || done0.Load() < int64(covered)) {
				var sc uvScan
				attempts := int64(0)
				// load is tx.Load that, when the read aborts the scan,
				// counts the abort as a miss if the sidecar still has no
				// answer for the word at the scan's start.
				load := func(tx *Tx, a uint64) uint64 {
					defer func() {
						if p := recover(); p != nil {
							if _, res := tm.mvcc.Read(tx.geo.lockIndex(a), a, sc.start); res == mvcc.ReadMiss {
								misses.Add(1)
							}
							panic(p)
						}
					}()
					v := tx.Load(a)
					sc.reads[sc.n] = [2]uint64{a, v}
					sc.n++
					return v
				}
				tm.AtomicSnap(tx, func(tx *Tx) {
					//stm:allow-effect the retry counter under test: read after commit, never in-body
					attempts++
					sc.start, _ = tx.Snapshot()
					sc.n = 0
					for i := uint64(0); i < uvSlots; i++ {
						n := load(tx, root+i)
						if r == 1 {
							continue
						}
						load(tx, n)
						load(tx, n+1)
						if i == 0 {
							// Wait out uvWriters+1 commits: at least one
							// began after this snapshot registered.
							for c := commits.Load(); commits.Load() < c+uvWriters+1 && writing.Load(); {
								runtime.Gosched()
							}
						}
					}
				})
				scans[r] = append(scans[r], sc)
				restarts.Add(attempts - 1)
				if r == 0 {
					done0.Add(1)
				}
			}
		}(r)
	}
	var writers sync.WaitGroup
	for w := 0; w < uvWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			tx := tm.NewTx()
			defer tx.Release()
			for started.Load() < int64(len(scans)) {
				runtime.Gosched() // a reader not yet running might never get a turn
			}
			last := 0 // commits since reader 0 finished
			uvWriter(tm, tx, root, uint64(w), 1, func(k int, _ uint64) bool {
				if k > 0 {
					commits.Add(1)
				}
				if done0.Load() >= int64(covered) {
					last++
				}
				return k < 8*covered && last <= race
			}, &logs[w])
		}(w)
	}
	writers.Wait()
	writing.Store(false)
	readers.Wait()
	if m := misses.Load(); m != 0 {
		t.Fatalf("scans restarted %d times on a sidecar miss (%d restarts over %d scans)",
			m, restarts.Load(), len(scans[0])+len(scans[1]))
	}
	after := tm.Stats()
	if after.RollOvers != before.RollOvers || after.Reconfigs != before.Reconfigs {
		t.Fatal("the clock was reset during phase 2; the serial model assumes one epoch")
	}
	if after.VersionedCommits == before.VersionedCommits {
		t.Fatal("no commit of phase 2 saw a registered snapshot")
	}

	// Replay: each word's writes in timestamp order, then every scan read
	// against the last write at or before the scan's start.
	hist := map[uint64][]uvWrite{}
	for _, l := range logs {
		for _, wr := range l {
			hist[wr.addr] = append(hist[wr.addr], wr)
		}
	}
	for _, ws := range hist {
		sort.Slice(ws, func(i, j int) bool { return ws[i].ts < ws[j].ts })
	}
	valueAt := func(addr, s uint64) (uint64, bool) {
		ws := hist[addr]
		i := sort.Search(len(ws), func(i int) bool { return ws[i].ts > s })
		if i > 0 {
			return ws[i-1].val, true
		}
		v, ok := base[addr]
		return v, ok
	}
	for r, ss := range scans {
		if len(ss) == 0 {
			t.Fatalf("reader %d completed no scan", r)
		}
		for _, sc := range ss {
			for _, rd := range sc.reads[:sc.n] {
				if want, ok := valueAt(rd[0], sc.start); !ok || rd[1] != want {
					t.Fatalf("reader %d's scan at %d read word %d = %d, the serial model says %d (known %v)",
						r, sc.start, rd[0], rd[1], want, ok)
				}
			}
		}
	}
}

// uvWriter commits until more(k, n) is false, where k counts its commits
// and n is the node the last one allocated (0: none). Each commit either
// replaces slot i's node — allocate, initialise through the capture
// window, link, free the old one — or updates the node in place. Every
// value is fresh, so a stale read cannot pass for a current one. With log
// set, the words each commit stored go there with its timestamp.
func uvWriter(tm *TM, tx *Tx, root, w uint64, phase uint64, more func(k int, n uint64) bool, log *[]uvWrite) {
	seq := phase<<60 | w<<56
	var i, n, v uint64
	replace := func(tx *Tx) {
		old := tx.Load(root + i)
		n = tx.Alloc(2)
		tx.Store(n, v)
		tx.Store(n+1, v+1)
		tx.Store(root+i, n)
		tx.Free(old, 2)
	}
	bump := func(tx *Tx) {
		n = tx.Load(root + i)
		tx.Store(n+1, v)
	}
	for k := 0; more(k, n); k++ {
		runtime.Gosched() // between commits, with no lock held
		seq += 2
		v = seq
		i = (uint64(k)*7 + w*5) % uvSlots
		if k%3 == 0 {
			tm.Atomic(tx, bump)
			if log != nil {
				*log = append(*log, uvWrite{tx.LastCommitTS(), n + 1, v})
			}
			n = 0
			continue
		}
		tm.Atomic(tx, replace)
		if log != nil {
			ts := tx.LastCommitTS()
			*log = append(*log, uvWrite{ts, n, v}, uvWrite{ts, n + 1, v + 1}, uvWrite{ts, root + i, n})
		}
	}
}
