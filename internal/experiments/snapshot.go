package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/harness"
	"tinystm/internal/kvstore"
	"tinystm/internal/mem"
	"tinystm/internal/rng"
	"tinystm/internal/txn"
)

// SnapshotConfig parameterizes the SnapshotSweep experiment: read-only
// full-table scan throughput against concurrent writers, with the MVCC
// sidecar off (classic read-only transactions, the paper's design) and on
// at each configured version budget. This is the workload the sidecar
// exists for — the long-read pathology the ROADMAP names — measured
// end to end on the kvstore.
type SnapshotConfig struct {
	// Shards and Buckets shape the store; Keys is the preloaded table
	// size (every scan walks all of them).
	Shards, Buckets, Keys uint64
	// Writers are the concurrent-update thread counts swept.
	Writers []int
	// Scanners is how many read-only scan threads run against them.
	Scanners int
	// Budgets are the per-shard version budgets measured with snapshots
	// on (each is one series next to the snapshots-off baseline).
	Budgets []int
	// Theta is the writers' Zipf skew over the keyspace.
	Theta float64
	// Duration is the measured window per point.
	Duration time.Duration
}

// DefaultSnapshotConfig scales the sweep to sc. The default table is
// large enough that one full scan spans several scheduler slices — the
// "long read-only transaction" regime the sidecar exists for: without it,
// every writer slice lands commits ahead of the scan position and the
// classic read-only scan restarts essentially forever. The budgets put
// the default (512) between one far below it and one far above it.
func DefaultSnapshotConfig(sc Scale) SnapshotConfig {
	writers := make([]int, len(sc.Threads))
	copy(writers, sc.Threads)
	keys := uint64(400_000)
	if sc.Duration < 500*time.Millisecond {
		// Quick/CI scale: a table the measurement window can cover.
		keys = 20_000
	}
	return SnapshotConfig{
		Shards: 8, Buckets: 64, Keys: keys,
		Writers:  writers,
		Scanners: 2,
		Budgets:  []int{64, 512, 65536},
		Theta:    0.0,
		Duration: sc.Duration,
	}
}

// SnapshotPoint is one measured (mode, writer-count) cell.
type SnapshotPoint struct {
	// Mode is "off" or "on/<budget>".
	Mode    string
	Budget  int // zero for off
	Writers int
	// Scans counts completed full-table scans; ScanRate is scans/second
	// and KeyRate keys-read/second across all scanners.
	Scans    uint64
	ScanRate float64
	KeyRate  float64
	// ScanAborts sums the scanner descriptors' aborts, split into the
	// snapshot-too-old retries (the only kind snapshot mode may produce)
	// and everything else (the validation/extension aborts that starve a
	// classic read-only scan).
	ScanAborts   uint64
	ScanTooOld   uint64
	ScanROAborts uint64
	// Restarts splits the too-old retries by cause, indexed by
	// core.SnapRestart (trimmed, miss, held); they sum to ScanTooOld.
	Restarts [core.NSnapRestarts]uint64
	// WriterRate is the writers' committed transactions/second, showing
	// what version publication costs them.
	WriterRate float64
	// Published/Trimmed are the sidecar totals over the window.
	Published, Trimmed uint64
}

// SnapshotSweepResult is the outcome of one SnapshotSweep.
type SnapshotSweepResult struct {
	Points []SnapshotPoint
}

// ToTable renders the scan-throughput comparison.
func (r SnapshotSweepResult) ToTable() harness.Table {
	tbl := harness.Table{
		Title: "read-only full-table scans under write pressure: snapshots off vs. on",
		Headers: []string{"mode", "writers", "scans/s", "keys/s (10^3)",
			"scan aborts (RO)", "too-old retries", "trimmed restarts", "miss restarts", "held restarts",
			"writer txs/s (10^3)", "published", "trimmed"},
	}
	for _, p := range r.Points {
		tbl.AddRow(p.Mode, p.Writers,
			fmt.Sprintf("%.1f", p.ScanRate),
			fmt.Sprintf("%.1f", p.KeyRate/1000),
			p.ScanROAborts, p.ScanTooOld,
			p.Restarts[core.RestartTrimmed], p.Restarts[core.RestartMiss], p.Restarts[core.RestartHeld],
			fmt.Sprintf("%.1f", p.WriterRate/1000),
			p.Published, p.Trimmed)
	}
	return tbl
}

// runSnapshotPoint measures one cell: writers hammer Zipf-drawn keys
// while scanners run back-to-back full-table scans.
func runSnapshotPoint(sc Scale, cfg SnapshotConfig, writers int, snapshots bool, budget int) SnapshotPoint {
	tm := core.MustNew(core.Config{
		Space:          mem.NewSpace(sc.SpaceWords),
		YieldEvery:     sc.YieldEvery,
		Snapshots:      snapshots,
		SnapshotBudget: budget,
	})
	store := kvstore.NewStore[*core.Tx](tm, cfg.Shards, cfg.Buckets)
	defer store.Close()
	for k := uint64(0); k < cfg.Keys; k++ {
		store.Put(k, 1)
	}
	m := store.Map()
	zipf := rng.NewZipf(cfg.Keys, cfg.Theta)

	//stm:allow-atomic experiment control plane: stop flag, not data under test
	var stop atomic.Bool
	var wg sync.WaitGroup
	//stm:allow-atomic per-worker commit tally aggregated outside any transaction
	var writerCommits atomic.Uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.NewThread(sc.Seed, id)
			tx := tm.NewTx()
			defer tx.Release()
			var n uint64
			for !stop.Load() {
				key := zipf.Next(r)
				tm.Atomic(tx, func(tx *core.Tx) {
					v, _ := m.Get(tx, key)
					m.Put(tx, key, v+1)
				})
				n++
			}
			writerCommits.Add(n)
		}(w)
	}

	//stm:allow-atomic measurement counters aggregated outside any transaction
	var scans, keysRead, tooOld, roAborts, allAborts atomic.Uint64
	for s := 0; s < cfg.Scanners; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tx := tm.NewTx()
			defer tx.Release()
			var n, keys uint64
			// The scan body checks the stop flag every 1024 keys and
			// bails: without the check, a starving classic read-only scan
			// would retry inside one Atomic call forever and the
			// measurement could never end. Bailed/partial scans are not
			// counted as completed; their keys still count as read work.
			scan := func(tx *core.Tx) {
				keys = 0
				m.Range(tx, func(_, _ uint64) bool {
					keys++
					return keys&1023 != 0 || !stop.Load()
				})
			}
			for !stop.Load() {
				if snapshots {
					tm.AtomicSnap(tx, scan)
				} else {
					tm.AtomicRO(tx, scan)
				}
				keysRead.Add(keys)
				if keys == cfg.Keys {
					n++
				}
			}
			scans.Add(n)
			st := tx.TxStats()
			allAborts.Add(st.Aborts)
			tooOld.Add(st.AbortsByKind[txn.AbortSnapshotTooOld])
			roAborts.Add(st.AbortsByKind[txn.AbortValidate] +
				st.AbortsByKind[txn.AbortExtend] + st.AbortsByKind[txn.AbortReadConflict])
		}(writers + s)
	}

	t0 := time.Now()
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()

	mode := "off"
	if snapshots {
		mode = fmt.Sprintf("on/%d", budget)
	}
	_, published, trimmed := tm.SnapshotCounts()
	return SnapshotPoint{
		Mode: mode, Budget: budget, Writers: writers,
		Scans:      scans.Load(),
		ScanRate:   float64(scans.Load()) / elapsed,
		KeyRate:    float64(keysRead.Load()) / elapsed,
		ScanAborts: allAborts.Load(), ScanTooOld: tooOld.Load(), ScanROAborts: roAborts.Load(),
		Restarts:   tm.SnapshotRestarts(),
		WriterRate: float64(writerCommits.Load()) / elapsed,
		Published:  published, Trimmed: trimmed,
	}
}

// SnapshotSweep measures classic read-only scans and snapshot-mode scans
// at every configured budget across the writer-thread sweep.
func SnapshotSweep(sc Scale, cfg SnapshotConfig) SnapshotSweepResult {
	var r SnapshotSweepResult
	for _, w := range cfg.Writers {
		r.Points = append(r.Points, runSnapshotPoint(sc, cfg, w, false, 0))
		for _, b := range cfg.Budgets {
			r.Points = append(r.Points, runSnapshotPoint(sc, cfg, w, true, b))
		}
	}
	return r
}
