package intset_test

import (
	"sort"
	"sync"
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/intset"
	"tinystm/internal/mem"
	"tinystm/internal/rng"
	"tinystm/internal/tl2"
	"tinystm/internal/txn"
)

// setKind names a structure under test.
type setKind int

const (
	kindList setKind = iota
	kindTree
)

var kindNames = map[setKind]string{kindList: "list", kindTree: "rbtree"}

// buildSet constructs a set of the given kind inside tx.
func buildSet[T txn.Tx](tx T, k setKind) intset.Set[T] {
	if k == kindTree {
		return intset.Tree[T]{Root: intset.NewTree(tx)}
	}
	return intset.List[T]{Head: intset.NewList(tx)}
}

// runSequentialVsMap drives random operations against the structure and a
// reference map and compares every result.
func runSequentialVsMap[T txn.Tx](t *testing.T, sys txn.System[T], k setKind, seed uint64) {
	t.Helper()
	tx := sys.NewTx()
	r := rng.New(seed)
	var set intset.Set[T]
	sys.Atomic(tx, func(tx T) { set = buildSet(tx, k) })

	ref := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		v := uint64(r.Intn(200)) + 1
		switch r.Intn(3) {
		case 0:
			var got bool
			sys.Atomic(tx, func(tx T) { got = set.Insert(tx, v) })
			want := !ref[v]
			if got != want {
				t.Fatalf("%s op %d: Insert(%d) = %v, want %v", kindNames[k], i, v, got, want)
			}
			ref[v] = true
		case 1:
			var got bool
			sys.Atomic(tx, func(tx T) { got = set.Remove(tx, v) })
			want := ref[v]
			if got != want {
				t.Fatalf("%s op %d: Remove(%d) = %v, want %v", kindNames[k], i, v, got, want)
			}
			delete(ref, v)
		default:
			var got bool
			sys.Atomic(tx, func(tx T) { got = set.Contains(tx, v) })
			if got != ref[v] {
				t.Fatalf("%s op %d: Contains(%d) = %v, want %v", kindNames[k], i, v, got, ref[v])
			}
		}
		if i%500 == 499 {
			var size int
			sys.Atomic(tx, func(tx T) { size = set.Size(tx) })
			if size != len(ref) {
				t.Fatalf("%s op %d: Size = %d, want %d", kindNames[k], i, size, len(ref))
			}
		}
	}
}

func newCoreSys(t testing.TB, d core.Design) *core.TM {
	t.Helper()
	sp := mem.NewSpace(1 << 22)
	return core.MustNew(core.Config{Space: sp, Locks: 1 << 12, Design: d})
}

func newTL2Sys(t testing.TB) *tl2.TM {
	t.Helper()
	sp := mem.NewSpace(1 << 22)
	return tl2.MustNew(tl2.Config{Space: sp, Locks: 1 << 12})
}

func TestSequentialSemanticsAllKindsAllSystems(t *testing.T) {
	kinds := []setKind{kindList, kindTree}
	for _, k := range kinds {
		k := k
		t.Run(kindNames[k]+"/core-wb", func(t *testing.T) {
			runSequentialVsMap[*core.Tx](t, newCoreSys(t, core.WriteBack), k, 11)
		})
		t.Run(kindNames[k]+"/core-wt", func(t *testing.T) {
			runSequentialVsMap[*core.Tx](t, newCoreSys(t, core.WriteThrough), k, 22)
		})
		t.Run(kindNames[k]+"/tl2", func(t *testing.T) {
			runSequentialVsMap[*tl2.Tx](t, newTL2Sys(t), k, 33)
		})
	}
}

func TestTreeInvariantsAfterRandomOps(t *testing.T) {
	tm := newCoreSys(t, core.WriteBack)
	tx := tm.NewTx()
	var root uint64
	tm.Atomic(tx, func(tx *core.Tx) { root = intset.NewTree(tx) })
	r := rng.New(5)
	ref := map[uint64]bool{}
	for i := 0; i < 1500; i++ {
		v := uint64(r.Intn(100)) + 1
		if r.Intn(2) == 0 {
			tm.Atomic(tx, func(tx *core.Tx) { intset.TreeInsert(tx, root, v, v*2) })
			ref[v] = true
		} else {
			tm.Atomic(tx, func(tx *core.Tx) { intset.TreeRemove(tx, root, v) })
			delete(ref, v)
		}
		if i%50 == 0 {
			tm.Atomic(tx, func(tx *core.Tx) {
				if err := intset.TreeValidate(tx, root); err != nil {
					//stm:allow-effect test-only: a failed assertion ends the test, and the throwaway TM dies with it
					t.Fatalf("op %d: %v", i, err)
				}
			})
		}
	}
	// Final full comparison including stored values.
	tm.Atomic(tx, func(tx *core.Tx) {
		if err := intset.TreeValidate(tx, root); err != nil {
			//stm:allow-effect test-only: a failed assertion ends the test, and the throwaway TM dies with it
			t.Fatal(err)
		}
		keys := intset.TreeSnapshot(tx, root)
		if len(keys) != len(ref) {
			//stm:allow-effect test-only: a failed assertion ends the test, and the throwaway TM dies with it
			t.Fatalf("size %d, want %d", len(keys), len(ref))
		}
		for _, k := range keys {
			if !ref[k] {
				//stm:allow-effect test-only: a failed assertion ends the test, and the throwaway TM dies with it
				t.Fatalf("unexpected key %d", k)
			}
			v, ok := intset.TreeLookup(tx, root, k)
			if !ok || v != k*2 {
				//stm:allow-effect test-only: a failed assertion ends the test, and the throwaway TM dies with it
				t.Fatalf("lookup %d = (%d,%v), want (%d,true)", k, v, ok, k*2)
			}
		}
	})
}

func TestTreeSetOverwrites(t *testing.T) {
	tm := newCoreSys(t, core.WriteBack)
	tx := tm.NewTx()
	var root uint64
	tm.Atomic(tx, func(tx *core.Tx) {
		root = intset.NewTree(tx)
		if !intset.TreeSet(tx, root, 5, 50) {
			t.Error("first TreeSet should insert")
		}
		if intset.TreeSet(tx, root, 5, 51) {
			t.Error("second TreeSet should overwrite, not insert")
		}
		if v, _ := intset.TreeLookup(tx, root, 5); v != 51 {
			t.Errorf("value = %d, want 51", v)
		}
	})
}

func TestListSnapshotSorted(t *testing.T) {
	tm := newCoreSys(t, core.WriteBack)
	tx := tm.NewTx()
	var head uint64
	tm.Atomic(tx, func(tx *core.Tx) { head = intset.NewList(tx) })
	vals := []uint64{42, 7, 99, 1, 63, 12}
	for _, v := range vals {
		tm.Atomic(tx, func(tx *core.Tx) { intset.ListInsert(tx, head, v) })
	}
	tm.Atomic(tx, func(tx *core.Tx) {
		snap := intset.ListSnapshot(tx, head)
		if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i] < snap[j] }) {
			t.Errorf("snapshot not sorted: %v", snap)
		}
		if len(snap) != len(vals) {
			t.Errorf("len = %d, want %d", len(snap), len(vals))
		}
	})
}

func TestListOverwriteSemantics(t *testing.T) {
	tm := newCoreSys(t, core.WriteBack)
	tx := tm.NewTx()
	var head uint64
	tm.Atomic(tx, func(tx *core.Tx) { head = intset.NewList(tx) })
	for _, v := range []uint64{10, 20, 30, 40} {
		tm.Atomic(tx, func(tx *core.Tx) { intset.ListInsert(tx, head, v) })
	}
	cases := []struct {
		upTo uint64
		want int
	}{
		{5, 0}, {10, 0}, {11, 1}, {25, 2}, {45, 4},
	}
	for _, c := range cases {
		var got, wsize int
		tm.Atomic(tx, func(tx *core.Tx) {
			got = intset.ListOverwrite(tx, head, c.upTo)
			wsize = tx.WriteSetSize()
		})
		if got != c.want {
			t.Errorf("Overwrite(%d) = %d, want %d", c.upTo, got, c.want)
		}
		if got > 0 && wsize == 0 {
			t.Errorf("Overwrite(%d) produced empty write set", c.upTo)
		}
	}
}

func TestSentinelValuesPanic(t *testing.T) {
	tm := newCoreSys(t, core.WriteBack)
	tx := tm.NewTx()
	var head uint64
	tm.Atomic(tx, func(tx *core.Tx) { head = intset.NewList(tx) })
	for _, v := range []uint64{intset.MinValue, intset.MaxValue} {
		func() {
			defer func() {
				recover() // the panic is expected; the tx rolls back
			}()
			tm.Atomic(tx, func(tx *core.Tx) { intset.ListInsert(tx, head, v) })
			t.Errorf("sentinel %d accepted", v)
		}()
	}
}

// runConcurrentStress hammers one set from several workers; each worker
// alternates insert/remove of its own value band so the final size is
// predictable, while shared reads cross bands.
func runConcurrentStress[T txn.Tx](t *testing.T, sys txn.System[T], k setKind) {
	t.Helper()
	setup := sys.NewTx()
	var set intset.Set[T]
	sys.Atomic(setup, func(tx T) { set = buildSet(tx, k) })

	const workers = 4
	const band = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.NewThread(77, id)
			tx := sys.NewTx()
			lo := uint64(id*band) + 1
			for i := 0; i < 300; i++ {
				v := lo + uint64(r.Intn(band))
				switch r.Intn(3) {
				case 0:
					sys.Atomic(tx, func(tx T) { set.Insert(tx, v) })
				case 1:
					sys.Atomic(tx, func(tx T) { set.Remove(tx, v) })
				default:
					shared := uint64(r.Intn(workers*band)) + 1
					sys.AtomicRO(tx, func(tx T) { set.Contains(tx, shared) })
				}
			}
			// Drain the band so the final size is exactly computable.
			for v := lo; v < lo+band; v++ {
				sys.Atomic(tx, func(tx T) { set.Remove(tx, v) })
			}
		}(w)
	}
	wg.Wait()
	sys.Atomic(setup, func(tx T) {
		if size := set.Size(tx); size != 0 {
			t.Errorf("%s: final size = %d, want 0", kindNames[k], size)
		}
	})
}

func TestConcurrentStressAllKinds(t *testing.T) {
	for _, k := range []setKind{kindList, kindTree} {
		k := k
		t.Run(kindNames[k]+"/core-wb", func(t *testing.T) {
			runConcurrentStress[*core.Tx](t, newCoreSys(t, core.WriteBack), k)
		})
		t.Run(kindNames[k]+"/core-wt", func(t *testing.T) {
			runConcurrentStress[*core.Tx](t, newCoreSys(t, core.WriteThrough), k)
		})
		t.Run(kindNames[k]+"/tl2", func(t *testing.T) {
			runConcurrentStress[*tl2.Tx](t, newTL2Sys(t), k)
		})
	}
}

func TestConcurrentTreeKeepsInvariants(t *testing.T) {
	tm := newCoreSys(t, core.WriteBack)
	setup := tm.NewTx()
	var root uint64
	tm.Atomic(setup, func(tx *core.Tx) { root = intset.NewTree(tx) })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.NewThread(3, id)
			tx := tm.NewTx()
			for i := 0; i < 400; i++ {
				v := uint64(r.Intn(256)) + 1
				if r.Intn(2) == 0 {
					tm.Atomic(tx, func(tx *core.Tx) { intset.TreeInsert(tx, root, v, v) })
				} else {
					tm.Atomic(tx, func(tx *core.Tx) { intset.TreeRemove(tx, root, v) })
				}
			}
		}(w)
	}
	wg.Wait()
	tm.Atomic(setup, func(tx *core.Tx) {
		if err := intset.TreeValidate(tx, root); err != nil {
			//stm:allow-effect test-only: a failed assertion ends the test, and the throwaway TM dies with it
			t.Fatal(err)
		}
	})
}
