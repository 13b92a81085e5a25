// Example kvstore: the sharded transactional key-value map used
// in-process — multi-key atomic batches, optimistic CAS, and the
// shard growth behind the freeze barrier — with the online tuner re-adapting the
// TM underneath a phase-shifting transfer workload.
//
// Run: go run ./examples/kvstore
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/kvstore"
	"tinystm/internal/mem"
	"tinystm/internal/rng"
	"tinystm/internal/tuning"
)

// accounts is the keyspace the load phase transfers value within.
const accounts = 2048

func main() {
	tm := core.MustNew(core.Config{
		Space: mem.NewSpace(1 << 20),
		Locks: 1 << 8, // deliberately bad: watch the tuner fix it
	})
	s := kvstore.NewStore[*core.Tx](tm, 8, 16)
	defer s.Close()

	// Single-key operations: each is one STM transaction.
	s.Put(1, 100)
	s.Put(2, 100)
	fmt.Println("balances:", at(s, 1), at(s, 2))

	// A transfer is one multi-key atomic batch: both Adds commit
	// together or not at all.
	s.Apply([]kvstore.Op{
		{Kind: kvstore.OpAdd, Key: 1, Val: ^uint64(29)}, // -30
		{Kind: kvstore.OpAdd, Key: 2, Val: 30},
	})
	fmt.Println("after transfer:", at(s, 1), at(s, 2))

	// Optimistic concurrency over the map: read, then CAS.
	cur, _ := s.Get(1)
	fmt.Println("CAS(1):", s.CAS(1, cur, cur*2))

	// Load with the autotuner attached: four clients move value between
	// Zipf-drawn accounts, each transfer one atomic batch; halfway through
	// the popularity turns from mild to heavily skewed.
	for k := uint64(0); k < accounts; k++ {
		s.Put(k, 100)
	}
	rt := tuning.NewRuntime(tm, tuning.RuntimeConfig{
		Period: 50 * time.Millisecond, Samples: 1,
	})
	if err := rt.Start(); err != nil {
		panic(err)
	}
	//stm:allow-atomic example control plane: the live key popularity, not data under the TM
	var skew atomic.Pointer[rng.Zipf]
	//stm:allow-atomic example control plane: the clients' stop flag
	var stop atomic.Bool
	skew.Store(rng.NewZipf(accounts, 0.5))
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.NewThread(42, id)
			for !stop.Load() {
				z := skew.Load()
				s.Apply([]kvstore.Op{
					{Kind: kvstore.OpAdd, Key: z.Next(r), Val: ^uint64(0)}, // -1
					{Kind: kvstore.OpAdd, Key: z.Next(r), Val: 1},
				})
			}
		}()
	}
	time.Sleep(700 * time.Millisecond)
	skew.Store(rng.NewZipf(accounts, 0.99))
	fmt.Println("--- phase shift: calm -> hot ---")
	time.Sleep(700 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	rt.Stop()

	for _, ev := range rt.Trace() {
		fmt.Println(ev)
	}
	best, tp, _ := rt.Best() // the workers keep every period busy
	st := tm.Stats()
	fmt.Printf("best %v at %.0f txs/s; %d keys, %d commits, %d reconfigs\n",
		best, tp, s.Len(), st.Commits, st.Reconfigs)
}

func at(s *kvstore.Store[*core.Tx], key uint64) uint64 {
	v, _ := s.Get(key)
	return v
}
