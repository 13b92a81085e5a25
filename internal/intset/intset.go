// Package intset provides the transactional data structures used by the
// paper's evaluation: the sorted linked list and red-black tree of Section
// 3.3 (integer sets) and the linked-list "overwrite" variant with large
// write sets (Figure 4, right).
//
// Every operation is a plain function generic over the txn.Tx constraint,
// so one body serves each STM (TinySTM, TL2); its tx calls go through the
// instantiation's dictionary (see package txn). Point operations only:
// there are no ordered range queries.
// Operations must run inside an atomic block; they do not retry themselves.
//
// Values must lie strictly between MinValue and MaxValue; the two bounds
// are reserved for the head and tail sentinels.
package intset

import "tinystm/internal/txn"

const (
	// MinValue is the reserved head-sentinel value.
	MinValue uint64 = 0
	// MaxValue is the reserved tail-sentinel value.
	MaxValue uint64 = ^uint64(0)
)

// checkValue panics on reserved values; catching misuse early beats
// corrupting a benchmark silently.
func checkValue(v uint64) {
	if v == MinValue || v == MaxValue {
		panic("intset: value collides with a sentinel")
	}
}

// Set groups the operation set shared by the list and the tree so harness
// workloads can be written once. Implementations bind a root address and
// dispatch to the generic functions.
type Set[T txn.Tx] interface {
	Contains(tx T, v uint64) bool
	Insert(tx T, v uint64) bool
	Remove(tx T, v uint64) bool
	Size(tx T) int
}
