package intset_test

import (
	"testing"
	"testing/quick"

	"tinystm/internal/core"
	"tinystm/internal/intset"
)

// testing/quick property tests: arbitrary operation sequences against a
// reference map, plus structural invariants, for each data structure.

// opSeq is a quick-generatable operation script: each byte encodes one
// operation (2 bits) and a value (6 bits).
type opSeq []byte

func runScript[S intset.Set[*core.Tx]](t *testing.T, tm *core.TM, set S, script opSeq) bool {
	t.Helper()
	tx := tm.NewTx()
	ref := map[uint64]bool{}
	for _, b := range script {
		v := uint64(b&0x3f) + 1
		var got bool
		switch b >> 6 {
		case 0, 3: // bias towards inserts so structures grow
			tm.Atomic(tx, func(tx *core.Tx) { got = set.Insert(tx, v) })
			if got == ref[v] {
				return false
			}
			ref[v] = true
		case 1:
			tm.Atomic(tx, func(tx *core.Tx) { got = set.Remove(tx, v) })
			if got != ref[v] {
				return false
			}
			delete(ref, v)
		case 2:
			tm.Atomic(tx, func(tx *core.Tx) { got = set.Contains(tx, v) })
			if got != ref[v] {
				return false
			}
		}
	}
	var size int
	tm.Atomic(tx, func(tx *core.Tx) { size = set.Size(tx) })
	return size == len(ref)
}

func quickConfig() *quick.Config {
	return &quick.Config{MaxCount: 60}
}

func TestQuickListVsMap(t *testing.T) {
	f := func(script opSeq) bool {
		tm := newCoreSys(t, core.WriteBack)
		tx := tm.NewTx()
		var head uint64
		tm.Atomic(tx, func(tx *core.Tx) { head = intset.NewList(tx) })
		return runScript(t, tm, intset.List[*core.Tx]{Head: head}, script)
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTreeVsMapWithInvariants(t *testing.T) {
	f := func(script opSeq) bool {
		tm := newCoreSys(t, core.WriteBack)
		tx := tm.NewTx()
		var root uint64
		tm.Atomic(tx, func(tx *core.Tx) { root = intset.NewTree(tx) })
		if !runScript(t, tm, intset.Tree[*core.Tx]{Root: root}, script) {
			return false
		}
		ok := true
		tm.Atomic(tx, func(tx *core.Tx) {
			ok = intset.TreeValidate(tx, root) == nil
		})
		return ok
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickListSnapshotSortedAndDistinct(t *testing.T) {
	f := func(script opSeq) bool {
		tm := newCoreSys(t, core.WriteBack)
		tx := tm.NewTx()
		var head uint64
		tm.Atomic(tx, func(tx *core.Tx) { head = intset.NewList(tx) })
		for _, b := range script {
			v := uint64(b&0x3f) + 1
			if b>>7 == 0 {
				tm.Atomic(tx, func(tx *core.Tx) { intset.ListInsert(tx, head, v) })
			} else {
				tm.Atomic(tx, func(tx *core.Tx) { intset.ListRemove(tx, head, v) })
			}
		}
		ok := true
		tm.Atomic(tx, func(tx *core.Tx) {
			snap := intset.ListSnapshot(tx, head)
			for i := 1; i < len(snap); i++ {
				if snap[i] <= snap[i-1] {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTreeLookupAgrees(t *testing.T) {
	// TreeSet/TreeLookup must behave exactly like a map[uint64]uint64.
	f := func(pairs []uint16) bool {
		tm := newCoreSys(t, core.WriteBack)
		tx := tm.NewTx()
		var root uint64
		tm.Atomic(tx, func(tx *core.Tx) { root = intset.NewTree(tx) })
		ref := map[uint64]uint64{}
		for _, p := range pairs {
			k := uint64(p&0xff) + 1
			v := uint64(p >> 8)
			tm.Atomic(tx, func(tx *core.Tx) { intset.TreeSet(tx, root, k, v) })
			ref[k] = v
		}
		ok := true
		tm.Atomic(tx, func(tx *core.Tx) {
			for k, v := range ref {
				got, found := intset.TreeLookup(tx, root, k)
				if !found || got != v {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
