//go:build unix

package mem

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// settledMappedBytes collects until the cleanups of Spaces earlier tests
// dropped have run, and returns what is still mapped.
func settledMappedBytes() int64 {
	prev := int64(-1)
	for {
		runtime.GC()
		time.Sleep(time.Millisecond)
		cur := mappedBytes.Load()
		if cur == prev {
			return cur
		}
		prev = cur
	}
}

// TestMappedSpaceLifetime: the arena's words start zero and 8-byte
// aligned, stay mapped and intact through collections while the Space is
// reachable, and are unmapped once it is not.
func TestMappedSpaceLifetime(t *testing.T) {
	const words = 1 << 16
	base := settledMappedBytes()
	func() {
		s := NewSpace(words)
		if got := mappedBytes.Load() - base; got != words*8 {
			t.Fatalf("mapped bytes grew by %d, want %d", got, words*8)
		}
		if p := uintptr(unsafe.Pointer(&s.words[0])); p%8 != 0 {
			t.Fatalf("words at %#x are not 8-byte aligned", p)
		}
		for a := Addr(0); a < words; a++ {
			if v := s.Load(a); v != 0 {
				t.Fatalf("fresh word %d = %d, want 0", a, v)
			}
		}
		for a := Addr(1); a < words; a += 509 {
			s.Store(a, uint64(a)*0x9e3779b97f4a7c15)
		}
		for i := 0; i < 5; i++ {
			runtime.GC()
		}
		time.Sleep(10 * time.Millisecond) // room for a wrongly queued cleanup to run
		for a := Addr(1); a < words; a += 509 {
			if v := s.Load(a); v != uint64(a)*0x9e3779b97f4a7c15 {
				t.Fatalf("word %d = %#x after collections, want %#x", a, v, uint64(a)*0x9e3779b97f4a7c15)
			}
		}
		if got := mappedBytes.Load() - base; got != words*8 {
			t.Fatalf("a reachable Space's mapping was released: mapped bytes %+d over the baseline", got)
		}
	}()

	for deadline := time.Now().Add(10 * time.Second); mappedBytes.Load() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("mapped bytes %d, want back at %d after dropping the Space", mappedBytes.Load(), base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
