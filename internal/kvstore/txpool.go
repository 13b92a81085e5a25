package kvstore

import (
	"sync"

	"tinystm/internal/txn"
)

// TxPool recycles transaction descriptors across short-lived borrowers —
// HTTP handler goroutines, connection handlers — that cannot hold a
// descriptor for their (unbounded) lifetime the way benchmark workers do.
// Descriptors are goroutine-affine only while inside a transaction, so
// borrowing one per request is safe; what is NOT safe is minting one per
// request and dropping it, which leaks a TM slot each time (the PR 2
// slot-exhaustion failure mode, now on the server path). The pool bounds
// minting at the peak concurrency ever observed, and Close releases every
// pooled descriptor back to the TM.
//
// A sync.Pool cannot do this job: it drops entries on GC without calling
// Release, and a dropped descriptor's slot is retained by the TM forever.
type TxPool[T txn.Tx] struct {
	sys txn.System[T]

	//stm:allow-atomic guards the descriptor free-list; descriptors live outside transactions
	mu     sync.Mutex
	free   []T
	closed bool
}

// NewTxPool builds an empty pool over sys.
func NewTxPool[T txn.Tx](sys txn.System[T]) *TxPool[T] {
	return &TxPool[T]{sys: sys}
}

// Get borrows a descriptor, minting a fresh one only when the pool is
// empty. Callers must hand it back with Put on every path.
func (p *TxPool[T]) Get() T {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		tx := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return tx
	}
	p.mu.Unlock()
	return p.sys.NewTx()
}

// Put returns a borrowed descriptor. After Close, the descriptor is
// released to the TM instead of pooled (late borrowers during shutdown
// must not resurrect the pool).
func (p *TxPool[T]) Put(tx T) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		txn.Release(tx)
		return
	}
	p.free = append(p.free, tx)
	p.mu.Unlock()
}

// Close releases every pooled descriptor back to the TM. Descriptors still
// borrowed are released as they are Put back.
func (p *TxPool[T]) Close() {
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.closed = true
	p.mu.Unlock()
	for _, tx := range free {
		txn.Release(tx)
	}
}

// Idle reports how many descriptors currently sit in the pool (tests).
func (p *TxPool[T]) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
