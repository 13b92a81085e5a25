// Package a exercises txbody violations: effects inside atomic bodies
// that re-execute on abort.
package a

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"stm"
)

func capturedState(tm *stm.TM, ch chan uint64) {
	tx := tm.NewTx()
	defer tx.Release()
	var hits []uint64
	count := 0
	tm.Atomic(tx, func(tx *stm.Tx) {
		v := tx.Load(1)
		hits = append(hits, v) // want `captured slice "hits" appended to inside Atomic body`
		count++                // want `captured variable "count" mutated non-idempotently inside Atomic body`
		ch <- v                // want `channel send inside Atomic body`
	})
}

func concurrencyEffects(tm *stm.TM, mu *sync.Mutex, done chan struct{}) {
	tx := tm.NewTx()
	defer tx.Release()
	tm.Atomic(tx, func(tx *stm.Tx) {
		go func() { <-done }() // want `goroutine launched inside Atomic body`
		mu.Lock()              // want `sync.Mutex.Lock inside Atomic body`
		_ = tx.Load(1)
		mu.Unlock() // want `sync.Mutex.Unlock inside Atomic body`
		close(done) // want `channel close inside Atomic body`
	})
}

func ioAndTime(tm *stm.TM) {
	tx := tm.NewTx()
	defer tx.Release()
	tm.AtomicRO(tx, func(tx *stm.Tx) {
		v := tx.Load(2)
		fmt.Println(v)               // want `fmt.Println inside AtomicRO body: I/O re-executes on abort`
		println(v)                   // want `println inside AtomicRO body: I/O re-executes on abort`
		_ = time.Now()               // want `time.Now inside AtomicRO body`
		time.Sleep(time.Millisecond) // want `time.Sleep inside AtomicRO body`
	})
}

func nestedAndFatal(t *testing.T, tm *stm.TM) {
	tx := tm.NewTx()
	defer tx.Release()
	tm.Atomic(tx, func(tx *stm.Tx) {
		if tx.Load(3) == 0 {
			t.Fatal("boom") // want `t.Fatal inside Atomic body: it exits via runtime.Goexit`
		}
		tm.Atomic(tx, func(tx *stm.Tx) { // want `nested Atomic call inside Atomic body`
			tx.Store(3, 1)
		})
	})
}

// resetMakesItIdempotent shows the clean pattern: accumulation preceded
// by an in-body reset is per-attempt state, not cross-retry leakage.
func resetMakesItIdempotent(tm *stm.TM) (int, []uint64) {
	tx := tm.NewTx()
	defer tx.Release()
	var hits []uint64
	total := 0
	tm.AtomicRO(tx, func(tx *stm.Tx) {
		hits = hits[:0]
		total = 0
		for i := uint64(0); i < 4; i++ {
			hits = append(hits, tx.Load(i))
			total += int(tx.Load(i))
		}
	})
	return total, hits
}

// op keeps its body on a struct field, built once over the struct's own
// fields (kvstore's pointOp): the body is found through the field, and a
// field of the captured struct is captured state.
type op struct {
	key, val uint64
	tries    int
	body     func(*stm.Tx)
}

func newOp() *op {
	o := &op{}
	o.body = func(tx *stm.Tx) {
		o.tries++ // want `captured variable "tries" mutated non-idempotently inside AtomicRO body`
		o.val = tx.Load(o.key)
		var local op
		local.tries++
	}
	return o
}

func fieldBoundBody(tm *stm.TM, o *op) uint64 {
	tx := tm.NewTx()
	defer tx.Release()
	tm.AtomicRO(tx, o.body)
	return o.val
}

// irrevocableBody: an Irrevocable body is checked like any other. It runs
// once, but a panic rolls back only its transactional stores.
func irrevocableBody(tm *stm.TM, ch chan uint64) {
	tx := tm.NewTx()
	defer tx.Release()
	count := 0
	tm.Irrevocable(tx, func(tx *stm.Tx) {
		tx.Store(1, tx.Load(1)+1)
		count++          // want `captured variable "count" mutated non-idempotently inside Irrevocable body`
		ch <- tx.Load(1) // want `channel send inside Irrevocable body`
	})
}
