package kvstore

import (
	"testing"

	"tinystm/internal/core"
)

// TestSingleKeyOpsDoNotAllocate pins ROADMAP item 2's single-key half: with
// durability off, a Store point operation adds no heap allocation to its
// (allocation-free) transaction. The ops hit existing keys, so no arena
// node is inserted and no shard grows.
func TestSingleKeyOpsDoNotAllocate(t *testing.T) {
	s := NewStore[*core.Tx](newTM(t, core.WriteBack, 1<<16), 4, 16)
	defer s.Close()
	for k := uint64(0); k < 64; k++ {
		s.Put(k, k)
	}
	var k uint64
	for name, op := range map[string]func(){
		"Get": func() { s.Get(k % 64) },
		"Put": func() { s.Put(k%64, k) },
		"CAS": func() { s.CAS(k%64, k, k) },
		"Add": func() { s.Add(k%64, 1) },
	} {
		if n := testing.AllocsPerRun(500, func() { k++; op() }); n != 0 {
			t.Errorf("Store.%s: %v allocs/op, want 0", name, n)
		}
	}
}
