// Package a exercises rowrite violations: writes reachable from
// read-only and snapshot bodies.
package a

import "stm"

func inline(tm *stm.TM, m *stm.Map) {
	tx := tm.NewTx()
	defer tx.Release()
	tm.AtomicRO(tx, func(tx *stm.Tx) {
		tx.Store(1, 2) // want `tx.Store inside AtomicRO body`
	})
	tm.AtomicSnap(tx, func(tx *stm.Tx) {
		tx.Free(1, 1) // want `tx.Free inside AtomicSnap body`
	})
	tm.AtomicRO(tx, func(tx *stm.Tx) {
		m.Put(tx, 1, 2) // want `Put inside AtomicRO body`
	})
}

func helperWrite(tx *stm.Tx, m *stm.Map) {
	m.Delete(tx, 9)
}

func throughHelper(tm *stm.TM, m *stm.Map) {
	tx := tm.NewTx()
	defer tx.Release()
	tm.AtomicRO(tx, func(tx *stm.Tx) {
		helperWrite(tx, m) // want `AtomicRO body reaches a write: Delete`
	})
}

func sharedBody(tm *stm.TM, m *stm.Map, ro bool) {
	tx := tm.NewTx()
	defer tx.Release()
	body := func(tx *stm.Tx) {
		m.CAS(tx, 1, 2, 3)
	}
	if ro {
		tm.AtomicRO(tx, body) // want `AtomicRO body reaches a write: CAS`
	} else {
		tm.Atomic(tx, body)
	}
}

// store wraps the runner the way kvstore does; the wrapper's body
// argument must still be analyzed as a read-only body.
type store struct {
	tm *stm.TM
	m  *stm.Map
}

func (s *store) atomicRO(tx *stm.Tx, fn func(*stm.Tx)) {
	s.tm.AtomicRO(tx, fn)
}

func viaWrapper(s *store) {
	tx := s.tm.NewTx()
	defer tx.Release()
	s.atomicRO(tx, func(tx *stm.Tx) {
		tx.Store(3, 4) // want `tx.Store inside AtomicRO body`
	})
}

func readsAreFine(tm *stm.TM, m *stm.Map) uint64 {
	tx := tm.NewTx()
	defer tx.Release()
	var v uint64
	tm.AtomicRO(tx, func(tx *stm.Tx) {
		v = tx.Load(1)
		_, _ = m.Get(tx, 2)
	})
	return v
}

// getter keeps its read-only body on a struct field; the runner call names
// only the field.
type getter struct{ body func(*stm.Tx) }

func newGetter(m *stm.Map) *getter {
	g := &getter{}
	g.body = func(tx *stm.Tx) {
		m.Put(tx, 1, 2)
	}
	return g
}

func fieldBoundBody(tm *stm.TM, g *getter) {
	tx := tm.NewTx()
	defer tx.Release()
	tm.AtomicRO(tx, g.body) // want `AtomicRO body reaches a write: Put`
}

// irrevocableWrites: an Irrevocable body runs in update mode and may
// write.
func irrevocableWrites(tm *stm.TM, m *stm.Map) {
	tx := tm.NewTx()
	defer tx.Release()
	tm.Irrevocable(tx, func(tx *stm.Tx) {
		tx.Store(1, 2)
		m.Put(tx, 3, 4)
	})
}

// twoGetters binds its body field to two literals, a read-only one and
// then one that writes: a runner called through the field may run
// either, so the second is walked too.
type twoGetters struct{ body func(*stm.Tx) }

func newTwoGetters(m *stm.Map, put bool) *twoGetters {
	g := &twoGetters{}
	g.body = func(tx *stm.Tx) { _, _ = m.Get(tx, 1) }
	if put {
		g.body = func(tx *stm.Tx) { m.Put(tx, 1, 2) }
	}
	return g
}

func twoBoundBodies(tm *stm.TM, g *twoGetters) {
	tx := tm.NewTx()
	defer tx.Release()
	tm.AtomicSnap(tx, g.body) // want `AtomicSnap body reaches a write: Put`
}
