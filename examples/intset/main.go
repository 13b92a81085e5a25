// Intset: the paper's two transactional integer sets under one workload.
//
// Four worker goroutines hammer a sorted linked list and a red-black tree —
// both living in one shared transactional space — then the program checks
// that the two agree and that the red-black invariants hold. Run with:
//
//	go run ./examples/intset
package main

import (
	"fmt"
	"sync"

	"tinystm/internal/core"
	"tinystm/internal/intset"
	"tinystm/internal/mem"
	"tinystm/internal/rng"
)

const (
	workers      = 4
	opsPerWorker = 2000
	valueRange   = 512
)

func main() {
	space := mem.NewSpace(1 << 20)
	tm := core.MustNew(core.Config{Space: space, Locks: 1 << 12, Hier: 16})

	setup := tm.NewTx()
	defer setup.Release()
	var listHead, treeRoot uint64
	tm.Atomic(setup, func(tx *core.Tx) {
		listHead = intset.NewList(tx)
		treeRoot = intset.NewTree(tx)
	})

	// Every worker applies the same operation to both structures in one
	// transaction, so the two sets must stay permanently identical.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.NewThread(99, id)
			tx := tm.NewTx()
			defer tx.Release()
			for i := 0; i < opsPerWorker; i++ {
				v := uint64(r.Intn(valueRange)) + 1
				insert := r.Intn(2) == 0
				tm.Atomic(tx, func(tx *core.Tx) {
					if insert {
						intset.ListInsert(tx, listHead, v)
						intset.TreeInsert(tx, treeRoot, v, v)
					} else {
						intset.ListRemove(tx, listHead, v)
						intset.TreeRemove(tx, treeRoot, v)
					}
				})
			}
		}(w)
	}
	wg.Wait()

	// The verification body only collects results; printing and panicking
	// happen after the commit, since a body re-executes on abort.
	var l, t int
	var treeErr error
	tm.Atomic(setup, func(tx *core.Tx) {
		l = intset.ListSize(tx, listHead)
		t = intset.TreeSize(tx, treeRoot)
		treeErr = intset.TreeValidate(tx, treeRoot)
	})
	fmt.Printf("sizes: list=%d rbtree=%d\n", l, t)
	if l != t {
		panic("structures diverged")
	}
	if treeErr != nil {
		panic(treeErr)
	}
	fmt.Println("both structures agree; red-black invariants hold")

	st := tm.Stats()
	fmt.Printf("commits=%d aborts=%d (%.1f%% abort rate)\n",
		st.Commits, st.Aborts,
		100*float64(st.Aborts)/float64(st.Commits+st.Aborts))
}
