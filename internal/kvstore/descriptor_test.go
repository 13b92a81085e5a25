package kvstore

import (
	"sync"
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/mem"
)

// A Store operation borrows one carrier and runs on the descriptor the
// carrier owns. These tests pin what that contract promises the TM: the
// descriptors minted stay bounded by the operations ever in flight at once,
// and every one of them comes back to the TM free list on Close, or after
// it, or after a panic.

// TestStoreBoundsDescriptorMinting is the server-path regression for the
// slot-exhaustion failure: tens of thousands of simulated handler
// lifetimes (one operation each) must mint no more descriptors than the
// peak concurrency — a per-request NewTx without Release would blow
// through maxSlots (2^14) and panic the TM.
func TestStoreBoundsDescriptorMinting(t *testing.T) {
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 16)})
	s := NewStore[*core.Tx](tm, 2, 4)
	defer s.Close()

	const handlers = 8
	const requests = 40000 // well past maxSlots = 16384
	var wg sync.WaitGroup
	per := requests / handlers
	for i := 0; i < handlers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for n := 0; n < per; n++ {
				k := uint64(id*per + n)
				s.Put(k%128, k)
				s.Get(k % 128)
			}
		}(i)
	}
	wg.Wait()

	minted, _ := tm.DescriptorCounts()
	// 1 setup descriptor (NewStore's Map build) + at most one per
	// concurrently active handler; generous 4x slack for races.
	if minted > 4*handlers+1 {
		t.Fatalf("store failed to bound descriptor minting: %d minted for %d concurrent handlers",
			minted, handlers)
	}
}

// TestStoreCloseReleasesDescriptors asserts the satellite requirement
// directly: after Close, every descriptor the store ever pooled is back on
// the TM free list, so a server shutdown leaks no slots.
func TestStoreCloseReleasesDescriptors(t *testing.T) {
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 16)})
	s := NewStore[*core.Tx](tm, 2, 4)
	for k := uint64(0); k < 100; k++ {
		s.Put(k, k)
	}
	s.Close()
	minted, free := tm.DescriptorCounts()
	if minted != free {
		t.Fatalf("store leaked descriptors: minted=%d free=%d", minted, free)
	}
}

// TestOperationAfterCloseReleasesDescriptor: a Get that borrowed its
// carrier before Close, and finishes after it, releases the carrier's
// descriptor to the TM instead of pooling it; so does one that starts
// after Close. The first Get is held at Begin by the freeze barrier while
// Close runs.
func TestOperationAfterCloseReleasesDescriptor(t *testing.T) {
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 12)})
	s := NewStore[*core.Tx](tm, 2, 4)
	s.Put(1, 10) // leaves one idle carrier
	idle := func() int {
		s.freeMu.Lock()
		defer s.freeMu.Unlock()
		return len(s.free)
	}
	done := make(chan uint64)
	tm.Quiesce(func() {
		go func() {
			v, _ := s.Get(1)
			done <- v
		}()
		for idle() != 0 { // the Get has taken the idle carrier
		}
		s.Close()
	})
	if v := <-done; v != 10 {
		t.Fatalf("the Get in flight across Close read %d, want 10", v)
	}
	if v, ok := s.Get(1); !ok || v != 10 {
		t.Fatalf("a Get after Close read %d, %v; want 10, true", v, ok)
	}
	if n := idle(); n != 0 {
		t.Fatalf("%d carriers pooled after Close", n)
	}
	if minted, free := tm.DescriptorCounts(); minted != free {
		t.Fatalf("operations after Close leaked descriptors: minted=%d free=%d", minted, free)
	}
}

// TestPanickingOperationLeaksNoDescriptor: an Update and a bulk ApplyInto
// that panic with ErrSpaceExhausted still return their carriers, and with
// them their descriptors: the next operation mints nothing, and Close
// releases everything minted. The arena is TestBulkBatchOutOfSpaceChangesNothing's.
func TestPanickingOperationLeaksNoDescriptor(t *testing.T) {
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 12), Snapshots: true})
	s := NewStore[*core.Tx](tm, 4, 8)
	outOfSpace := func(op string, fn func()) {
		t.Helper()
		func() {
			defer func() {
				if r := recover(); r != core.ErrSpaceExhausted {
					t.Fatalf("%s panicked with %v, want ErrSpaceExhausted", op, r)
				}
			}()
			fn()
		}()
		minted, _ := tm.DescriptorCounts()
		s.Get(0)
		if after, _ := tm.DescriptorCounts(); after != minted {
			t.Fatalf("after %s panicked, a Get minted %d descriptors: the panic leaked its carrier's", op, after-minted)
		}
	}
	outOfSpace("an Update", func() {
		for k := uint64(0); ; k++ {
			s.Update(OpPut, k, k, 0)
		}
	})
	ops := make([]Op, 2*bulkOps)
	for i := range ops {
		ops[i] = Op{Kind: OpPut, Key: 1<<32 + uint64(i)}
	}
	res := make([]OpResult, len(ops))
	outOfSpace("a bulk ApplyInto", func() { s.ApplyInto(ops, res) })
	s.Close()
	if minted, free := tm.DescriptorCounts(); minted != free {
		t.Fatalf("store leaked descriptors: minted=%d free=%d", minted, free)
	}
}
