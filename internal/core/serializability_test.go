package core

import (
	"sort"
	"sync"
	"testing"

	"tinystm/internal/rng"
)

// Serializability checker: concurrent update transactions log the values
// they read and wrote plus their commit timestamp; afterwards the
// committed history is replayed in timestamp order against a sequential
// model. Every logged read must equal the model state at the
// transaction's serialization point — the defining property of the
// time-based algorithm (update transactions serialize exactly in commit-
// timestamp order).

type loggedTx struct {
	ts     uint64
	reads  [](struct{ addr, val uint64 })
	writes [](struct{ addr, val uint64 })
}

func runSerializabilityCheck(t *testing.T, tm *TM, workers, txPerWorker, words int) {
	t.Helper()
	setup := tm.NewTx()
	var base uint64
	tm.Atomic(setup, func(tx *Tx) {
		base = tx.Alloc(words)
	})

	var mu sync.Mutex
	var history []loggedTx

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.NewThread(1234, id)
			tx := tm.NewTx()
			for i := 0; i < txPerWorker; i++ {
				var rec loggedTx
				// All reads strictly before all writes so logged reads
				// are never served from the own write set.
				rAddrs := []uint64{
					base + uint64(r.Intn(words)),
					base + uint64(r.Intn(words)),
					base + uint64(r.Intn(words)),
				}
				wAddrs := []uint64{
					base + uint64(r.Intn(words)),
					base + uint64(r.Intn(words)),
				}
				val := uint64(id)<<32 | uint64(i+1)
				tm.Atomic(tx, func(tx *Tx) {
					rec = loggedTx{}
					for _, a := range rAddrs {
						rec.reads = append(rec.reads,
							struct{ addr, val uint64 }{a, tx.Load(a)})
					}
					for k, a := range wAddrs {
						v := val + uint64(k)<<16
						tx.Store(a, v)
						rec.writes = append(rec.writes,
							struct{ addr, val uint64 }{a, v})
					}
				})
				rec.ts = tx.LastCommitTS()
				if rec.ts == 0 {
					t.Error("update commit reported zero timestamp")
					return
				}
				mu.Lock()
				history = append(history, rec)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// Commit timestamps are unique, so the replay is a fold in timestamp
	// order: a duplicate is a bug, and every logged read must match the
	// model state before the transaction's writes apply.
	sort.Slice(history, func(i, j int) bool { return history[i].ts < history[j].ts })
	state := make(map[uint64]uint64, words)
	for i, h := range history {
		if i > 0 && h.ts == history[i-1].ts {
			t.Fatalf("duplicate commit timestamp %d", h.ts)
		}
		for _, rd := range h.reads {
			if got := state[rd.addr]; got != rd.val {
				t.Fatalf("tx at ts %d read addr %d = %d, serial order has %d",
					h.ts, rd.addr, rd.val, got)
			}
		}
		for _, wr := range h.writes {
			state[wr.addr] = wr.val
		}
	}
	// The final memory must equal the replayed state.
	tm.Atomic(setup, func(tx *Tx) {
		for a, v := range state {
			if got := tx.Load(a); got != v {
				//stm:allow-effect test-only: a failed assertion ends the test, and the throwaway TM dies with it
				t.Fatalf("final memory addr %d = %d, replay has %d", a, got, v)
			}
		}
	})
}

func TestSerializabilityWriteBack(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, nil)
	runSerializabilityCheck(t, tm, 4, 300, 8)
}

func TestSerializabilityWriteThrough(t *testing.T) {
	tm, _ := newTestTM(t, WriteThrough, nil)
	runSerializabilityCheck(t, tm, 4, 300, 8)
}

func TestSerializabilityTinyLockArray(t *testing.T) {
	// Heavy false sharing must not break the serialization order.
	tm, _ := newTestTM(t, WriteBack, func(c *Config) { c.Locks = 4 })
	runSerializabilityCheck(t, tm, 4, 200, 8)
}

func TestSerializabilityWithHier(t *testing.T) {
	tm, _ := newTestTM(t, WriteBack, func(c *Config) { c.Hier = 16 })
	runSerializabilityCheck(t, tm, 4, 200, 8)
}

func TestSerializabilityHighShift(t *testing.T) {
	tm, _ := newTestTM(t, WriteThrough, func(c *Config) { c.Shifts = 4 })
	runSerializabilityCheck(t, tm, 4, 200, 8)
}

func TestSerializabilityClockStrategies(t *testing.T) {
	// Both designs under the commit clock. YieldEvery forces fine-grained
	// interleaving so commits genuinely race on few-core hosts, and the
	// replay rejects any two commits that share a timestamp.
	designsAndClock(t, func(t *testing.T, d Design) {
		tm, _ := newTestTM(t, d, func(c *Config) { c.YieldEvery = 4 })
		runSerializabilityCheck(t, tm, 4, 200, 8)
	})
}
