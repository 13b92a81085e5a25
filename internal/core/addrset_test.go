package core

import (
	"math"
	"testing"

	"tinystm/internal/mem"
)

// TestAddrSetGenerations pins the O(1) reset: members of an earlier
// generation are gone, growth keeps only the current one, and a wrapped
// stamp does not resurrect a slot filled 2^32 generations ago.
func TestAddrSetGenerations(t *testing.T) {
	var s addrSet
	s.reset()
	for a := mem.Addr(1); a <= 100; a++ {
		if !s.add(a) {
			t.Fatalf("fresh add(%d) reported a duplicate", a)
		}
	}
	if s.add(42) {
		t.Fatal("add(42) twice in one generation reported absent")
	}
	s.reset()
	if !s.add(42) {
		t.Fatal("add(42) after reset reported a duplicate")
	}
	for a := mem.Addr(1000); a < 1100; a++ { // grows past the first generation's table
		s.add(a)
	}
	if !s.add(7) || s.add(42) {
		t.Fatal("growth kept a stale member or dropped a current one")
	}

	// A slot stamped 1, then 2^32-1 resets: the stamp comes round to 1.
	s.reset()
	s.gen = 1
	s.add(9)
	s.gen = math.MaxUint32
	s.reset()
	if s.gen != 1 {
		t.Fatalf("generation after the wrap = %d, want 1", s.gen)
	}
	if !s.add(9) {
		t.Fatal("a slot filled before the wrap reads as current")
	}
}
