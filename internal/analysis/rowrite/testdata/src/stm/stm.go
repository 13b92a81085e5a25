// Package stm is a minimal stand-in for the repo's STM surface: just
// enough type shape (names, signatures) for the analyzers' recognizers.
package stm

// RedoOp mirrors txn.RedoOp.
type RedoOp struct {
	Kind int
	Key  uint64
	Val  uint64
}

// Tx is a transaction descriptor.
type Tx struct{ released bool }

func (tx *Tx) Load(addr uint64) uint64     { return 0 }
func (tx *Tx) Store(addr uint64, v uint64) {}
func (tx *Tx) Alloc(n int) uint64          { return 0 }
func (tx *Tx) Free(addr uint64, n int)     {}
func (tx *Tx) Release()                    { tx.released = true }
func (tx *Tx) Begin(readOnly bool)         {}
func (tx *Tx) Commit() bool                { return true }
func (tx *Tx) Redo(op RedoOp)              {}

// TM mints descriptors and runs atomic blocks.
type TM struct{}

func (tm *TM) NewTx() *Tx                       { return &Tx{} }
func (tm *TM) Atomic(tx *Tx, fn func(*Tx))      { fn(tx) }
func (tm *TM) AtomicRO(tx *Tx, fn func(*Tx))    { fn(tx) }
func (tm *TM) AtomicSnap(tx *Tx, fn func(*Tx))  { fn(tx) }
func (tm *TM) Irrevocable(tx *Tx, fn func(*Tx)) { fn(tx) }

// Map is a transactional map.
type Map struct{}

func (m *Map) Get(tx *Tx, k uint64) (uint64, bool) { return 0, false }
func (m *Map) Put(tx *Tx, k, v uint64) bool        { return true }
func (m *Map) Delete(tx *Tx, k uint64) bool        { return false }
func (m *Map) CAS(tx *Tx, k, old, nv uint64) bool  { return false }
func (m *Map) Add(tx *Tx, k, d uint64) uint64      { return 0 }
