package mem

import (
	"syscall"
	"testing"
	"unsafe"
)

// resident reports, page by page, whether the pages w starts on and
// reaches into are in memory. w must start on a page.
func resident(t *testing.T, w []uint64) []bool {
	t.Helper()
	n := (uint64(len(w)) + pageWords - 1) / pageWords
	vec := make([]byte, n)
	if _, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&w[0])), uintptr(len(w)*8), uintptr(unsafe.Pointer(&vec[0]))); errno != 0 {
		t.Fatalf("mincore: %v", errno)
	}
	in := make([]bool, n)
	for i, v := range vec {
		in[i] = v&1 != 0
	}
	return in
}

// TestFreeReleasesWholePages: freeing a block of at least a page hands
// every page it covers whole back to the kernel, and none of the pages it
// shares with its neighbours; a smaller block stays resident.
func TestFreeReleasesWholePages(t *testing.T) {
	s := NewSpace(int(16 * pageWords))
	// Start half a page in, so the block's first and last pages are
	// shared with the words around it.
	before := s.Alloc(int(pageWords / 2))
	a := s.Alloc(int(4 * pageWords))
	after := s.Alloc(int(pageWords))
	small := s.Alloc(int(pageWords / 2))
	for w := Addr(1); w < after+Addr(pageWords)+Addr(pageWords/2); w++ {
		s.Store(w, uint64(w))
	}
	pages := s.words[:after+Addr(pageWords)] // whole pages: a page-aligned end
	for i, in := range resident(t, pages) {
		if !in {
			t.Fatalf("page %d not resident after the stores", i)
		}
	}
	s.Free(a, int(4*pageWords))
	s.Free(small, int(pageWords/2))
	first := uint64(a) / pageWords // shared with before
	last := (uint64(a) + 4*pageWords) / pageWords
	for i, in := range resident(t, pages) {
		shared := uint64(i) < first+1 || uint64(i) >= last
		if in != shared {
			t.Fatalf("page %d resident=%v after the free, want %v (block spans pages %d..%d)", i, in, shared, first, last)
		}
	}
	if v := s.Load(before); v != uint64(before) {
		t.Fatalf("the block before the freed one reads %d, want %d", v, before)
	}
	if v := s.Load(after); v != uint64(after) {
		t.Fatalf("the block after the freed one reads %d, want %d", v, after)
	}
	if v := s.Load(small); v != uint64(small) {
		t.Fatalf("a freed block under a page reads %d, want its words kept", v)
	}
	if !resident(t, s.words[uint64(small)&^(pageWords-1):][:pageWords])[0] {
		t.Fatal("a freed block under a page lost its page")
	}
}
