package core_test

import (
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/kvstore"
	"tinystm/internal/mem"
)

// TestIrrevocableBulkLogsEachWordOnce: a 1 024-put kvstore batch runs
// irrevocably and logs each word it overwrites once — the meta word of
// the bucket line each insert fills (the slot's key and value words, free
// when the run began, need none), less the few inserts into an overflow
// line the run itself appended, which its capture window covers; the
// shards' key counts are no words of the space — and a batch that
// overwrites those keys logs one value word per put.
func TestIrrevocableBulkLogsEachWordOnce(t *testing.T) {
	for _, d := range []core.Design{core.WriteBack, core.WriteThrough} {
		t.Run(d.String(), func(t *testing.T) {
			const shards, puts = 16, 1024
			tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 18), Locks: 1 << 16, Design: d})
			s := kvstore.NewStore[*core.Tx](tm, shards, 64)
			defer s.Close()
			ops := make([]kvstore.Op, puts)
			res := make([]kvstore.OpResult, puts)
			for i := range ops {
				ops[i] = kvstore.Op{Kind: kvstore.OpPut, Key: uint64(i), Val: uint64(i)}
			}
			for _, step := range []struct {
				name     string
				min, max int
			}{
				{"insert", puts - shards, puts},
				{"overwrite", puts, puts},
			} {
				before := tm.Stats().IrrevocableCommits
				s.ApplyInto(ops, res)
				if tm.Stats().IrrevocableCommits != before+1 {
					t.Fatalf("%s: the batch did not run irrevocably", step.name)
				}
				if n := tm.IrrevocableUndoLen(); n < step.min || n > step.max {
					t.Fatalf("%s: the %d-put run logged %d undo entries, want %d to %d", step.name, puts, n, step.min, step.max)
				}
			}
			if n := s.Len(); n != puts {
				t.Fatalf("Len() = %d after the batches, want %d", n, puts)
			}
		})
	}
}
