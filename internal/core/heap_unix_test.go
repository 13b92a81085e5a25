//go:build unix

package core

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"tinystm/internal/mem"
)

// TestArenaOutsideGoHeap: the arena and the MVCC sidecar of stmkvd's
// default size — 2^22 words each, 64 MiB together — are not Go heap, so
// the collector's live heap, and with it its pacing goal, does not grow by
// them when a TM is built.
func TestArenaOutsideGoHeap(t *testing.T) {
	heapLive := func() uint64 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	before := heapLive()
	tm := MustNew(Config{Space: mem.NewSpace(1 << 22), Snapshots: true})
	after := heapLive()
	runtime.KeepAlive(tm)
	if grew := int64(after) - int64(before); grew >= 8<<20 {
		t.Fatalf("live Go heap grew by %d MiB building the TM, want < 8 MiB", grew>>20)
	}
}
