package core

import (
	"testing"

	"tinystm/internal/mem"
)

// Micro-benchmarks for the primitive STM operations, including the
// ablation pairs DESIGN.md calls out: write-back vs write-through,
// hierarchical fast path on vs off, and read-only vs update reads.

func benchTM(b *testing.B, d Design, hier uint64) (*TM, *Tx) {
	b.Helper()
	sp := mem.NewSpace(1 << 20)
	tm := MustNew(Config{Space: sp, Locks: 1 << 16, Design: d, Hier: hier})
	return tm, tm.NewTx()
}

func BenchmarkAtomicEmpty(b *testing.B) {
	tm, tx := benchTM(b, WriteBack, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Atomic(tx, func(tx *Tx) {})
	}
}

func BenchmarkLoadUpdateTx(b *testing.B) {
	tm, tx := benchTM(b, WriteBack, 1)
	var base uint64
	tm.Atomic(tx, func(tx *Tx) {
		base = tx.Alloc(64)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Atomic(tx, func(tx *Tx) {
			for j := uint64(0); j < 64; j++ {
				_ = tx.Load(base + j)
			}
			tx.Store(base, 1) // keep it an update transaction
		})
	}
}

func BenchmarkLoadReadOnlyTx(b *testing.B) {
	tm, tx := benchTM(b, WriteBack, 1)
	var base uint64
	tm.Atomic(tx, func(tx *Tx) {
		base = tx.Alloc(64)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.AtomicRO(tx, func(tx *Tx) {
			for j := uint64(0); j < 64; j++ {
				_ = tx.Load(base + j)
			}
		})
	}
}

func benchStores(b *testing.B, d Design) {
	tm, tx := benchTM(b, d, 1)
	var base uint64
	tm.Atomic(tx, func(tx *Tx) {
		base = tx.Alloc(64)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Atomic(tx, func(tx *Tx) {
			for j := uint64(0); j < 64; j++ {
				tx.Store(base+j, uint64(i))
			}
		})
	}
}

func BenchmarkStoreWriteBack(b *testing.B)    { benchStores(b, WriteBack) }
func BenchmarkStoreWriteThrough(b *testing.B) { benchStores(b, WriteThrough) }

func benchValidation(b *testing.B, hier uint64) {
	// An update transaction with a large read set, forced to validate by
	// interleaving commits from a second descriptor.
	sp := mem.NewSpace(1 << 20)
	tm := MustNew(Config{Space: sp, Locks: 1 << 16, Design: WriteBack, Hier: hier})
	tx := tm.NewTx()
	other := tm.NewTx()
	var base, far uint64
	tm.Atomic(tx, func(tx *Tx) {
		base = tx.Alloc(512)
		far = tx.Alloc(1)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Bump the clock so the reader cannot take the ts==start+1
		// commit fast path.
		tm.Atomic(other, func(o *Tx) { o.Store(far, uint64(i)) })
		tm.Atomic(tx, func(tx *Tx) {
			for j := uint64(0); j < 512; j++ {
				_ = tx.Load(base + j)
			}
			tx.Store(base, uint64(i))
		})
	}
}

func BenchmarkValidationNoHier(b *testing.B)  { benchValidation(b, 1) }
func BenchmarkValidationHier16(b *testing.B)  { benchValidation(b, 16) }
func BenchmarkValidationHier64(b *testing.B)  { benchValidation(b, 64) }
func BenchmarkValidationHier256(b *testing.B) { benchValidation(b, 256) }

func benchReadWriteMix(b *testing.B, d Design) {
	tm, tx := benchTM(b, d, 1)
	var base uint64
	tm.Atomic(tx, func(tx *Tx) {
		base = tx.Alloc(128)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Atomic(tx, func(tx *Tx) {
			for j := uint64(0); j < 128; j += 4 {
				v := tx.Load(base + j)
				tx.Store(base+j, v+1)
			}
		})
	}
}

func BenchmarkReadWriteMixWB(b *testing.B) { benchReadWriteMix(b, WriteBack) }
func BenchmarkReadWriteMixWT(b *testing.B) { benchReadWriteMix(b, WriteThrough) }

func BenchmarkReadAfterWriteSameStripe(b *testing.B) {
	// High shift forces all addresses onto one lock: write-back must walk
	// its per-lock chain on every read-after-write.
	sp := mem.NewSpace(1 << 20)
	tm := MustNew(Config{Space: sp, Locks: 1 << 10, Shifts: 8, Design: WriteBack})
	tx := tm.NewTx()
	var base uint64
	tm.Atomic(tx, func(tx *Tx) {
		base = tx.Alloc(16)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Atomic(tx, func(tx *Tx) {
			for j := uint64(0); j < 16; j++ {
				tx.Store(base+j, uint64(i))
			}
			for j := uint64(0); j < 16; j++ {
				_ = tx.Load(base + j)
			}
		})
	}
}

func BenchmarkAllocFree(b *testing.B) {
	tm, tx := benchTM(b, WriteBack, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Atomic(tx, func(tx *Tx) {
			a := tx.Alloc(4)
			tx.Store(a, 1)
			tx.Free(a, 4)
		})
	}
}
