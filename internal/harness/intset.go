package harness

import (
	"fmt"

	"tinystm/internal/intset"
	"tinystm/internal/rng"
	"tinystm/internal/txn"
)

// Kind selects one of the paper's two integer sets (Section 3.3).
type Kind int

const (
	// KindList is the sorted linked list of Section 3.3.
	KindList Kind = iota
	// KindRBTree is the STAMP red-black tree of Section 3.3.
	KindRBTree
)

// String names the kind as the paper's figures do.
func (k Kind) String() string {
	switch k {
	case KindList:
		return "linked list"
	case KindRBTree:
		return "red-black tree"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IntsetParams configures the paper's harness (Section 3.3): a structure
// populated with InitialSize elements whose size stays almost constant;
// update transactions alternately add a fresh element and remove the last
// inserted one, so they always write.
type IntsetParams struct {
	Kind        Kind
	InitialSize int
	// Range is the value domain [1, Range]; 0 defaults to 2×InitialSize
	// (the classic intset setting that keeps ~50% membership).
	Range uint64
	// UpdatePct is the percentage of update transactions (0..100).
	UpdatePct int
	// OverwritePct switches the list workload to the Figure 4 (right)
	// variant: that percentage of transactions traverse-and-overwrite up
	// to a random value, producing large write sets. Only valid with
	// KindList; UpdatePct is ignored when non-zero.
	OverwritePct int
}

func (p IntsetParams) withDefaults() IntsetParams {
	if p.Range == 0 {
		p.Range = 2 * uint64(p.InitialSize)
	}
	return p
}

// BuildIntset allocates the structure and populates it with InitialSize
// distinct random elements, returning the bound Set.
func BuildIntset[T txn.Tx](sys txn.System[T], p IntsetParams, seed uint64) intset.Set[T] {
	p = p.withDefaults()
	r := rng.New(seed)
	tx := sys.NewTx()
	defer txn.Release(tx)
	var set intset.Set[T]
	sys.Atomic(tx, func(tx T) {
		switch p.Kind {
		case KindList:
			set = intset.List[T]{Head: intset.NewList(tx)}
		case KindRBTree:
			set = intset.Tree[T]{Root: intset.NewTree(tx)}
		default:
			panic("harness: unknown Kind")
		}
	})
	// Populate outside a single giant transaction: one insert per
	// transaction mirrors the original harness and keeps the write sets
	// small.
	inserted := 0
	for inserted < p.InitialSize {
		v := r.Uint64n(p.Range) + 1
		var ok bool
		sys.Atomic(tx, func(tx T) { ok = set.Insert(tx, v) })
		if ok {
			inserted++
		}
	}
	return set
}

// IntsetOp returns the per-operation function implementing the paper's
// transaction mix against the given set.
func IntsetOp[T txn.Tx](sys txn.System[T], set intset.Set[T], p IntsetParams) OpFunc[T] {
	p = p.withDefaults()
	if p.OverwritePct > 0 {
		l, ok := any(set).(intset.List[T])
		if !ok {
			panic("harness: OverwritePct requires KindList")
		}
		return func(w *Worker, tx T) {
			v := w.Rng.Uint64n(p.Range) + 1
			if w.Rng.Percent(p.OverwritePct) {
				sys.Atomic(tx, func(tx T) { intset.ListOverwrite(tx, l.Head, v) })
			} else {
				sys.AtomicRO(tx, func(tx T) { intset.ListContains(tx, l.Head, v) })
			}
		}
	}
	return func(w *Worker, tx T) {
		if w.Rng.Percent(p.UpdatePct) {
			if w.HasLast {
				// Remove the last inserted element: guaranteed present
				// (only we could have inserted it; see BuildIntset).
				sys.Atomic(tx, func(tx T) { set.Remove(tx, w.LastVal) })
				w.HasLast = false
				return
			}
			// Add a fresh element, drawing until the insert succeeds so
			// the transaction always writes (paper Section 3.3).
			sys.Atomic(tx, func(tx T) {
				for {
					v := w.Rng.Uint64n(p.Range) + 1
					if set.Insert(tx, v) {
						w.LastVal = v
						break
					}
				}
			})
			w.HasLast = true
			return
		}
		v := w.Rng.Uint64n(p.Range) + 1
		sys.AtomicRO(tx, func(tx T) { set.Contains(tx, v) })
	}
}
