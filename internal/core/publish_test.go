package core

import (
	"slices"
	"testing"

	"tinystm/internal/mem"
	"tinystm/internal/mvcc"
)

// The publication oracle: what a versioned commit hands the sidecar is
// fixed by what the transaction did, independent of how publishVersions
// finds it. A program of Alloc, Free and Store runs as one transaction on
// a TM with snapshots. With a snapshot registered, after commit at ts,
//   - every word of every block it allocated is born: its written record
//     in the sidecar reads ts, and
//   - tx.pub holds one pre-image per written address (Free locks its
//     words as writes) that lies in no allocated block, in first-write
//     order, carrying the committed value it supersedes and its stripe's
//     version before the transaction acquired it.
// With none registered the commit is unversioned: every written record is
// as it was, and nothing is published or retained.
// The oracle finds fresh words by scanning every allocated block, the
// naive rule the merged-span search must agree with.

// pubCoverage records which of the shapes a program produced that a
// wrong span index would get wrong.
type pubCoverage struct {
	outOfOrder bool // an Alloc returned a lower address than the one before
	abutting   bool // two allocated blocks touch
	storeFreed bool // a Store hit a block already freed in this transaction
}

const (
	pubPreBlocks    = 12 // committed blocks the program may store to and free
	pubRecycled     = 8  // blocks freed and reclaimed before the program runs
	pubMaxAllocs    = 48
	pubMaxProgBytes = 512
)

// runPubProgram decodes prog two bytes per step (op, argument) into one
// transaction of design d, committed with a snapshot registered when
// reader is set, and checks its publication against the oracle.
func runPubProgram(t *testing.T, d Design, prog []byte, reader bool) pubCoverage {
	t.Helper()
	tm, err := New(Config{
		Space:     mem.NewSpace(1 << 12),
		Locks:     1 << 5, // fresh and pre-existing words share stripes
		Design:    d,
		Snapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := tm.NewTx()
	run := func(what string, body func()) {
		tx.Begin(false)
		if !attempt(body) || !tx.Commit() {
			t.Fatalf("%v: %s did not commit single-threaded", d, what)
		}
	}

	// Committed state the program starts from: blocks of 1–3 words with
	// distinct values, interleaved with the recycled blocks so that a
	// fresh block reused from a free list has pre-existing words on both
	// sides, and bump allocation resumes right after a pre-existing block.
	// Then a few commits so the stripes carry different versions.
	pre := make([]allocRec, pubPreBlocks)
	recycled := make([]allocRec, pubRecycled)
	run("setup", func() {
		for i := range pre {
			n := 1 + i%3
			a := tx.Alloc(n)
			pre[i] = allocRec{addr: mem.Addr(a), words: n}
			for w := uint64(0); w < uint64(n); w++ {
				tx.Store(a+w, 1000+a+w)
			}
			if i < len(recycled) {
				recycled[i] = allocRec{addr: mem.Addr(tx.Alloc(n)), words: n}
			}
		}
	})
	for k := 0; k < 3; k++ {
		run("version spread", func() {
			for i := k; i < len(pre); i += 3 {
				tx.Store(uint64(pre[i].addr), 2000+uint64(k))
			}
		})
	}
	// Recycled blocks go back to the allocator's LIFO free lists, freed in
	// ascending order: the program's Allocs of those sizes come back in
	// descending address order before bump allocation (abutting) resumes.
	run("recycled free", func() {
		for _, b := range recycled {
			tx.Free(uint64(b.addr), b.words)
		}
	})
	drainForTest(tm)

	g := tm.geo.Load()
	preVal := map[uint64]uint64{}
	for _, b := range pre {
		for w := 0; w < b.words; w++ {
			a := uint64(b.addr) + uint64(w)
			preVal[a] = tm.space.Load(mem.Addr(a))
		}
	}
	preLock := make([]uint64, g.lockMask+1)
	for li := range preLock {
		preLock[li] = g.loadLock(uint64(li))
	}
	preWritten := make([]uint64, tm.space.Cap())
	for a := range preWritten {
		preWritten[a] = tm.mvcc.Written(uint64(a))
	}

	var (
		cov        pubCoverage
		fresh      []allocRec
		freedPre   = map[int]bool{}
		freedFresh = map[int]bool{}
		order      []uint64 // written addresses, first write first
		seen       = map[uint64]bool{}
	)
	wrote := func(a uint64) {
		if !seen[a] {
			seen[a] = true
			order = append(order, a)
		}
	}
	free := func(b allocRec) {
		tx.Free(uint64(b.addr), b.words)
		for w := 0; w < b.words; w++ {
			wrote(uint64(b.addr) + uint64(w))
		}
	}
	tx.pub = nil
	var r *Tx // the registered snapshot, when reader is set
	if reader {
		r = tm.NewTx()
		r.BeginSnap()
	}
	run("program", func() {
		for i := 0; i+1 < len(prog) && i < pubMaxProgBytes; i += 2 {
			x := int(prog[i+1])
			switch prog[i] % 5 {
			case 0:
				if len(fresh) == pubMaxAllocs {
					continue
				}
				n := 1 + x%3
				b := allocRec{addr: mem.Addr(tx.Alloc(n)), words: n}
				for _, o := range fresh {
					if o.addr+mem.Addr(o.words) == b.addr || b.addr+mem.Addr(b.words) == o.addr {
						cov.abutting = true
					}
				}
				if len(fresh) > 0 && b.addr < fresh[len(fresh)-1].addr {
					cov.outOfOrder = true
				}
				fresh = append(fresh, b)
			case 1:
				if len(fresh) == 0 {
					continue
				}
				j := x % len(fresh)
				a := uint64(fresh[j].addr) + uint64(x/len(fresh)%fresh[j].words)
				tx.Store(a, uint64(x)+7)
				wrote(a)
				cov.storeFreed = cov.storeFreed || freedFresh[j]
			case 2:
				j := x % len(pre)
				a := uint64(pre[j].addr) + uint64(x/len(pre)%pre[j].words)
				tx.Store(a, uint64(x)+9)
				wrote(a)
				cov.storeFreed = cov.storeFreed || freedPre[j]
			case 3:
				if j := x % len(pre); !freedPre[j] {
					free(pre[j])
					freedPre[j] = true
				}
			case 4:
				if len(fresh) == 0 {
					continue
				}
				if j := x % len(fresh); !freedFresh[j] {
					free(fresh[j])
					freedFresh[j] = true
				}
			}
		}
	})
	if r != nil {
		if !r.Commit() {
			t.Fatal("the registered snapshot failed to commit")
		}
		r.Release()
	}
	if !reader {
		for a, w := range preWritten {
			if got := tm.mvcc.Written(uint64(a)); got != w {
				t.Fatalf("%v: an unversioned commit moved word %d's written record %d → %d", d, a, w, got)
			}
		}
		if len(tx.pub) != 0 || tm.RetainedVersions() != 0 {
			t.Fatalf("%v: an unversioned commit published %d versions, %d retained", d, len(tx.pub), tm.RetainedVersions())
		}
		return cov
	}
	if len(order) == 0 {
		return cov // no write, no lock: a read-only commit publishes nothing
	}

	var born, want []mvcc.Version
	for _, b := range fresh {
		for w := 0; w < b.words; w++ {
			a := uint64(b.addr) + uint64(w)
			born = append(born, mvcc.Version{Stripe: g.lockIndex(a), Addr: a})
		}
	}
	for _, a := range order {
		if slices.ContainsFunc(fresh, func(b allocRec) bool {
			return a >= uint64(b.addr) && a < uint64(b.addr)+uint64(b.words)
		}) {
			continue
		}
		li := g.lockIndex(a)
		want = append(want, mvcc.Version{Stripe: li, Addr: a, Val: preVal[a], From: version(d, preLock[li])})
	}
	ts := tx.LastCommitTS()
	for _, b := range born {
		if w := tm.mvcc.Written(b.Addr); w != ts {
			t.Fatalf("%v: born word %d has written record %d, want the commit's ts %d", d, b.Addr, w, ts)
		}
	}
	if !slices.Equal(tx.pub, want) {
		for i := 0; i < len(want) || i < len(tx.pub); i++ {
			var got, exp mvcc.Version
			if i < len(tx.pub) {
				got = tx.pub[i]
			}
			if i < len(want) {
				exp = want[i]
			}
			if got != exp {
				t.Fatalf("%v: published %d versions, oracle %d; first difference at %d: got %+v, want %+v",
					d, len(tx.pub), len(want), i, got, exp)
			}
		}
	}
	return cov
}

// pubSeed reaches every shape pubCoverage names: size-1 and size-3
// allocations popped off the free lists in descending order, bump
// allocations touching each other, stores to a freed pre-existing block
// and to a freed fresh one.
var pubSeed = []byte{
	0, 0, 0, 0, 0, 2, 0, 2, 0, 1, // recycled sizes 1, 1, 3, 3, 2
	1, 5, 1, 17, 2, 3, 2, 40, // stores: fresh, fresh, pre, pre
	3, 3, 2, 3, // free pre block 3, store to it
	4, 1, 1, 1, // free fresh block 1, store to it
	0, 2, 0, 2, 0, 2, // size 3 is used up: bump, three blocks back to back
	2, 7, 2, 35, 1, 40, 3, 10, 1, 250, // pre words bordering fresh blocks
}

func TestPublishSeedCoversShapes(t *testing.T) {
	bothDesigns(t, func(t *testing.T, d Design) {
		for _, reader := range []bool{false, true} {
			cov := runPubProgram(t, d, pubSeed, reader)
			if !cov.outOfOrder || !cov.abutting || !cov.storeFreed {
				t.Fatalf("seed coverage %+v: every shape must be reached", cov)
			}
		}
	})
}

// FuzzPublishVersions checks every decoded program against the
// publication oracle in both designs, versioned and not.
func FuzzPublishVersions(f *testing.F) {
	f.Add(pubSeed)
	f.Add([]byte{2, 0, 2, 1, 2, 2})                   // pre-existing words only
	f.Add([]byte{0, 2, 1, 0, 1, 1, 1, 2})             // one fresh block, every word
	f.Add([]byte{0, 0, 4, 0, 3, 0, 3, 1, 2, 0, 2, 1}) // frees, then stores to them
	f.Fuzz(func(t *testing.T, prog []byte) {
		for _, d := range []Design{WriteBack, WriteThrough} {
			for _, reader := range []bool{false, true} {
				runPubProgram(t, d, prog, reader)
			}
		}
	})
}
