package mem

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestNewSpacePanicsOnTinyCapacity(t *testing.T) {
	for _, n := range []int{-1, 0, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSpace(%d) did not panic", n)
				}
			}()
			NewSpace(n)
		}()
	}
}

func TestAllocNeverReturnsNil(t *testing.T) {
	s := NewSpace(64)
	for i := 0; i < 10; i++ {
		a := s.Alloc(4)
		if a == Nil {
			t.Fatalf("alloc %d exhausted prematurely", i)
		}
	}
}

func TestAllocExhaustionReturnsNil(t *testing.T) {
	s := NewSpace(8)
	if a := s.Alloc(7); a == Nil { // 1 reserved + 7 = 8
		t.Fatal("first alloc failed")
	}
	if a := s.Alloc(1); a != Nil {
		t.Fatalf("expected exhaustion, got %d", a)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	s := NewSpace(16)
	a := s.Alloc(2)
	s.Store(a, 123)
	s.Store(a+1, 456)
	if got := s.Load(a); got != 123 {
		t.Errorf("Load = %d, want 123", got)
	}
	if got := s.Load(a + 1); got != 456 {
		t.Errorf("Load = %d, want 456", got)
	}
}

func TestCompareAndSwap(t *testing.T) {
	s := NewSpace(16)
	a := s.Alloc(1)
	if !s.CompareAndSwap(a, 0, 5) {
		t.Fatal("CAS from zero failed")
	}
	if s.CompareAndSwap(a, 0, 6) {
		t.Fatal("CAS with stale old succeeded")
	}
	if got := s.Load(a); got != 5 {
		t.Errorf("value = %d, want 5", got)
	}
}

func TestFreeReuse(t *testing.T) {
	s := NewSpace(32)
	a := s.Alloc(4)
	s.Free(a, 4)
	b := s.Alloc(4)
	if b != a {
		t.Errorf("free-list reuse expected: got %d, want %d", b, a)
	}
}

func TestAllocZeroesReusedBlock(t *testing.T) {
	s := NewSpace(32)
	a := s.Alloc(4)
	for i := Addr(0); i < 4; i++ {
		s.Store(a+i, ^uint64(0))
	}
	s.Free(a, 4)
	b := s.Alloc(4)
	for i := Addr(0); i < 4; i++ {
		if got := s.Load(b + i); got != 0 {
			t.Errorf("word %d = %d, want 0", i, got)
		}
	}
}

func TestFreeNilIsNoop(t *testing.T) {
	s := NewSpace(16)
	s.Free(Nil, 4) // must not panic
}

func TestFreeInvalidPanics(t *testing.T) {
	s := NewSpace(16)
	a := s.Alloc(2)
	for name, f := range map[string]func(){
		"zero size":     func() { s.Free(a, 0) },
		"negative size": func() { s.Free(a, -1) },
		"out of range":  func() { s.Free(15, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAllocNonPositivePanics(t *testing.T) {
	s := NewSpace(16)
	for _, n := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Alloc(%d) did not panic", n)
				}
			}()
			s.Alloc(n)
		}()
	}
}

// TestAllocAlignsLineMultiples: a block whose size is a multiple of
// LineWords starts on a line boundary, whether it is carved from the
// frontier behind odd-sized blocks or taken back from a free list; the
// words skipped to align it are not live and are handed out again.
func TestAllocAlignsLineMultiples(t *testing.T) {
	s := NewSpace(1 << 12)
	for i, n := range []int{3, 8, 5, 16, 1, 8, 7, 64, 2, 24, 512} {
		a := s.Alloc(n)
		if n%LineWords == 0 {
			if a%LineWords != 0 {
				t.Fatalf("alloc %d: a %d-word block at %d, not on a line boundary", i, n, a)
			}
			s.Free(a, n)
			if b := s.Alloc(n); b != a {
				t.Fatalf("a freed %d-word block came back at %d, want %d", n, b, a)
			}
		}
	}
	if got, want := s.LiveWords(), uint64(3+8+5+16+1+8+7+64+2+24+512); got != want {
		t.Fatalf("live words %d, want %d: alignment gaps must not count", got, want)
	}
	// The first line-sized block skipped words 4..7 behind the 3-word one.
	if gap := s.Alloc(4); gap != 4 {
		t.Fatalf("a 4-word block at %d, want the alignment gap at 4", gap)
	}
}

// TestAllocZeroesReleasedBlock: a block of several pages, freed (its pages
// released where the host can) and allocated again, reads as zero.
func TestAllocZeroesReleasedBlock(t *testing.T) {
	n := int(3 * pageWords)
	s := NewSpace(2 * n)
	a := s.Alloc(n)
	for w := a; w < a+Addr(n); w++ {
		s.Store(w, ^uint64(0))
	}
	s.Free(a, n)
	if b := s.Alloc(n); b != a {
		t.Fatalf("the block came back at %d, want %d", b, a)
	}
	for w := a; w < a+Addr(n); w++ {
		if v := s.Load(w); v != 0 {
			t.Fatalf("word %d of the re-allocated block = %#x, want 0", w-a, v)
		}
	}
}

func TestLiveWordsAccounting(t *testing.T) {
	s := NewSpace(64)
	if s.LiveWords() != 0 {
		t.Fatalf("fresh space live = %d", s.LiveWords())
	}
	a := s.Alloc(5)
	b := s.Alloc(3)
	if s.LiveWords() != 8 {
		t.Errorf("live = %d, want 8", s.LiveWords())
	}
	s.Free(a, 5)
	if s.LiveWords() != 3 {
		t.Errorf("live = %d, want 3", s.LiveWords())
	}
	s.Free(b, 3)
	if s.LiveWords() != 0 {
		t.Errorf("live = %d, want 0", s.LiveWords())
	}
}

func TestBigBlockFreeList(t *testing.T) {
	s := NewSpace(1024)
	a := s.Alloc(100) // beyond maxSizeClass
	s.Free(a, 100)
	b := s.Alloc(100)
	if b != a {
		t.Errorf("big block not reused: got %d want %d", b, a)
	}
}

// TestAllocDisjointQuick: random alloc/free sequences never hand out
// overlapping live blocks.
func TestAllocDisjointQuick(t *testing.T) {
	f := func(sizes []uint8) bool {
		s := NewSpace(1 << 16)
		type blk struct {
			a Addr
			n int
		}
		var live []blk
		owner := map[Addr]bool{}
		for i, raw := range sizes {
			n := int(raw%16) + 1
			if i%3 == 2 && len(live) > 0 {
				victim := live[0]
				live = live[1:]
				for w := Addr(0); w < Addr(victim.n); w++ {
					delete(owner, victim.a+w)
				}
				s.Free(victim.a, victim.n)
				continue
			}
			a := s.Alloc(n)
			if a == Nil {
				return true // exhaustion is acceptable
			}
			for w := Addr(0); w < Addr(n); w++ {
				if owner[a+w] {
					return false // overlap!
				}
				owner[a+w] = true
			}
			live = append(live, blk{a, n})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	s := NewSpace(1 << 18)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var mine []Addr
			for i := 0; i < 500; i++ {
				a := s.Alloc(3)
				if a == Nil {
					t.Error("exhausted")
					return
				}
				s.Store(a, uint64(id))
				mine = append(mine, a)
				if len(mine) > 4 {
					victim := mine[0]
					mine = mine[1:]
					if got := s.Load(victim); got != uint64(id) {
						t.Errorf("cross-thread scribble: got %d want %d", got, id)
						return
					}
					s.Free(victim, 3)
				}
			}
		}(w)
	}
	wg.Wait()
}
