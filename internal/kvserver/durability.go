package kvserver

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tinystm/internal/kvstore"
	"tinystm/internal/txn"
	"tinystm/internal/wal"
)

// Durability ack modes.
const (
	// DurabilityOff runs without a write-ahead log: state dies with the
	// process (the pre-WAL behaviour).
	DurabilityOff = "off"
	// DurabilityGroup acks a mutating request only after its commit's
	// redo records are fsynced; the flusher batches concurrent commits
	// into one fsync (group commit).
	DurabilityGroup = "group"
)

// ParseDurability validates a -durability flag value.
func ParseDurability(s string) (string, error) {
	switch s {
	case "", DurabilityOff:
		return DurabilityOff, nil
	case DurabilityGroup:
		return s, nil
	default:
		return "", fmt.Errorf("kvserver: unknown durability mode %q (off, group)", s)
	}
}

// Server lifecycle states. A durable server boots in stateStarting while
// a background goroutine replays the WAL; it serves data traffic only
// after flipping to stateReady. A WAL write/fsync failure flips it to
// stateDegraded — committed memory keeps serving reads, but mutations
// are refused because their durability can no longer be promised.
// Unrecoverable recovery damage (mid-log corruption) parks it in
// stateFailed: only health and stats endpoints answer, so an operator
// can see why.
const (
	stateStarting int32 = iota
	stateReady
	stateDegraded
	stateFailed
)

func stateName(st int32) string {
	switch st {
	case stateStarting:
		return "starting"
	case stateReady:
		return "ready"
	case stateDegraded:
		return "degraded"
	case stateFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// durability bundles the server's WAL machinery.
type durability struct {
	mode string
	fs   wal.FS
	dir  string

	//stm:allow-atomic WAL recovery state machine; durability I/O is outside the STM
	state atomic.Int32
	log   *wal.Log

	// recDone closes when the recovery goroutine finishes (either into
	// stateReady or stateFailed); mu guards the error/stat fields below.
	recDone chan struct{}

	//stm:allow-atomic guards recovery error/stat fields written by the recovery goroutine
	mu         sync.Mutex
	recErr     error
	recStats   wal.ReplayStats
	degradeErr error

	// Background checkpointer.
	ckptStop    chan struct{}
	ckptWG      sync.WaitGroup
	nextCkpt    uint64
	ckptCount   uint64
	ckptLastErr error
}

// walLog returns the open log, or nil before recovery finishes (or when
// durability is off/failed).
func (d *durability) walLog() *wal.Log {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log
}

// walSink adapts the log's tickets to the store's DurabilitySink. It
// serves the store's blocking methods; the request pipeline takes its
// tickets unwaited (execInto) and waits on them itself (settle).
type walSink struct{ log *wal.Log }

func (ws walSink) WaitDurable(t txn.DurableTicket) error { return t.(*wal.Pending).Wait() }

// startDurability launches WAL recovery in the background so New returns
// immediately and /healthz answers while a large log replays; /readyz
// reports 503 until the flip to ready. Returns without starting anything
// when durability is off.
func (s *Server) startDurability() {
	d := s.dur
	if d.mode == DurabilityOff {
		d.state.Store(stateReady)
		close(d.recDone)
		return
	}
	go s.recover()
}

// recover is the boot sequence of a durable server:
//
//  1. Replay: newest valid checkpoint + every segment, fold into state.
//  2. Load the folded state into the store (durability still off, so
//     loading does not re-log the records).
//  3. Write a BOOT CHECKPOINT of the recovered state, then drop every
//     pre-boot segment, oldest first, and every older checkpoint.
//  4. Only now open the log, on a fresh segment. After this the on-disk
//     era is entirely this process's: recovery never has to order this
//     boot's (epoch, ts) positions against a previous incarnation's clock.
//  5. Attach the redo hook and the store's durability mode, then flip to
//     ready. Only now can traffic generate log records.
//
// The order of 3 and 4 is what makes a crash during recovery recoverable.
// Replay forgives a torn or still-reserved tail in the NEWEST segment
// only, and after a kill -9 the old log's last segment has one; a fresh
// segment created beside it would turn that tail into mid-log corruption
// at the next boot. So no new segment exists while an old one does, and
// removing oldest-first means that whatever a second crash leaves behind
// is the boot checkpoint plus a suffix of the old log, replayed over it
// idempotently, its torn tail still last.
//
// Any error before ready parks the server in stateFailed with the cause:
// serving writes that recovery may have dropped would be data loss.
func (s *Server) recover() {
	d := s.dur
	fail := func(err error) {
		d.mu.Lock()
		d.recErr = err
		d.mu.Unlock()
		d.state.Store(stateFailed)
		close(d.recDone)
	}

	state, stats, err := wal.Replay(d.fs, d.dir)
	if err != nil {
		fail(err)
		return
	}
	d.mu.Lock()
	d.recStats = stats
	d.mu.Unlock()

	s.store.Load(state)

	if s.cfg.recoveryGate != nil {
		// Test hook: hold the server in stateStarting until released so
		// readiness behaviour is observable deterministically.
		<-s.cfg.recoveryGate
	}

	pairs := make([]kvstore.KV, 0, len(state))
	for k, v := range state {
		pairs = append(pairs, kvstore.KV{Key: k, Val: v})
	}
	bootCkpt := stats.MaxCheckpointIndex + 1
	if err := wal.WriteCheckpoint(d.fs, d.dir, bootCkpt, 0, 0, pairs); err != nil {
		fail(fmt.Errorf("kvserver: boot checkpoint: %w", err))
		return
	}
	if err := wal.RemoveSegmentsBefore(d.fs, d.dir, math.MaxUint64); err != nil {
		fail(fmt.Errorf("kvserver: drop pre-boot segments: %w", err))
		return
	}
	if err := wal.RemoveCheckpointsBefore(d.fs, d.dir, bootCkpt); err != nil {
		fail(fmt.Errorf("kvserver: drop pre-boot checkpoints: %w", err))
		return
	}

	log, err := wal.Open(wal.Config{
		Dir:        d.dir,
		FS:         d.fs,
		BatchDelay: s.cfg.WALBatch,
		OnError:    s.degrade,
		FlushNs:    s.met.walFlushNs,
		BatchOps:   s.met.walBatchOps,
	})
	if err != nil {
		fail(err)
		return
	}
	d.mu.Lock()
	d.log = log
	d.mu.Unlock()
	d.nextCkpt = bootCkpt + 1

	if err := s.store.EnableDurability(walSink{log: log}); err != nil {
		log.Close()
		fail(err)
		return
	}
	s.tm.SetRedoHook(func(epoch, ts uint64, ops []txn.RedoOp) txn.DurableTicket {
		return log.Append(epoch, ts, ops)
	})

	// The checkpointer must exist before recDone closes: closeDurability
	// waits on recDone and then tears it down, so starting it afterwards
	// could leak it across a racing Close.
	if s.cfg.CheckpointEvery > 0 {
		d.ckptStop = make(chan struct{})
		d.ckptWG.Add(1)
		go s.checkpointLoop()
	}

	d.state.Store(stateReady)
	close(d.recDone)
}

// degrade flips the server into sticky read-only mode; wired as the
// log's OnError callback (fires once).
func (s *Server) degrade(err error) {
	d := s.dur
	d.mu.Lock()
	d.degradeErr = err
	d.mu.Unlock()
	d.state.CompareAndSwap(stateReady, stateDegraded)
}

// RecoveryWait blocks until WAL recovery finishes and returns its error
// (nil when the server reached ready). With durability off it returns
// immediately.
func (s *Server) RecoveryWait() error {
	<-s.dur.recDone
	s.dur.mu.Lock()
	defer s.dur.mu.Unlock()
	return s.dur.recErr
}

// State reports the lifecycle state name (starting, ready, degraded,
// failed).
func (s *Server) State() string { return stateName(s.dur.state.Load()) }

func (s *Server) checkpointLoop() {
	d := s.dur
	defer d.ckptWG.Done()
	ticker := time.NewTicker(s.cfg.CheckpointEvery)
	defer ticker.Stop()
	for {
		select {
		case <-d.ckptStop:
			return
		case <-ticker.C:
			// Failures are recorded for /stats and retried next tick: a
			// missed checkpoint only delays truncation, it loses nothing.
			err := s.Checkpoint()
			d.mu.Lock()
			d.ckptLastErr = err
			d.mu.Unlock()
		}
	}
}

// Checkpoint takes one snapshot checkpoint and truncates the log prefix
// it covers:
//
//  1. Rotate the log. Everything staged so far is now durable in
//     segments below the returned index.
//  2. Snapshot the store. The scan starts after those commits published,
//     so its snapshot timestamp covers every record in the sealed
//     prefix (later records may also be included — replay is idempotent
//     over them).
//  3. Write the checkpoint durably, THEN drop the sealed segments, then
//     the now-superseded older checkpoints. A crash between any two
//     steps leaves extra files, never missing state.
//
// Stores without a consistent snapshot scan (snapshot mode off) skip
// checkpointing: the log then grows without truncation but recovery
// stays correct.
func (s *Server) Checkpoint() error {
	d := s.dur
	d.mu.Lock()
	log := d.log
	d.mu.Unlock()
	if log == nil {
		return fmt.Errorf("kvserver: no write-ahead log")
	}
	segIdx, err := log.Rotate()
	if err != nil {
		return err
	}
	pairs, epoch, ts, ok := s.store.CheckpointScan()
	if !ok {
		return fmt.Errorf("kvserver: store cannot take a consistent snapshot (snapshots disabled); skipping checkpoint")
	}
	d.mu.Lock()
	idx := d.nextCkpt
	d.nextCkpt++
	d.mu.Unlock()
	if err := wal.WriteCheckpoint(d.fs, d.dir, idx, epoch, ts, pairs); err != nil {
		return err
	}
	if err := log.DropSegmentsBefore(segIdx); err != nil {
		return err
	}
	if err := wal.RemoveCheckpointsBefore(d.fs, d.dir, idx); err != nil {
		return err
	}
	d.mu.Lock()
	d.ckptCount++
	d.mu.Unlock()
	return nil
}

// closeDurability tears down the WAL half of Close: stop checkpointing,
// detach the redo hook so no new records are staged, then close the log
// (final drain). Requests still in flight — a blocked HTTP handler, a
// response a binary connection holds — may see their tickets resolve
// with wal.ErrLogClosed and answer 503; the server is shutting down.
func (s *Server) closeDurability() {
	d := s.dur
	if d.mode == DurabilityOff {
		return
	}
	<-d.recDone
	if d.ckptStop != nil {
		close(d.ckptStop)
		d.ckptWG.Wait()
	}
	s.tm.SetRedoHook(nil)
	if d.log != nil {
		d.log.Close()
	}
}

// durabilityStats builds the /stats durability section: the mode, the
// lifecycle state and, when logging, the recovery story and the
// checkpointer's.
func (s *Server) durabilityStats() map[string]any {
	d := s.dur
	out := map[string]any{
		"mode":  d.mode,
		"state": s.State(),
	}
	if d.mode == DurabilityOff {
		return out
	}
	d.mu.Lock()
	recErr, recStats := d.recErr, d.recStats
	degradeErr := d.degradeErr
	ckptCount, ckptLastErr := d.ckptCount, d.ckptLastErr
	d.mu.Unlock()
	rec := map[string]any{
		"checkpoint_found":    recStats.CheckpointFound,
		"checkpoint_pairs":    recStats.CheckpointPairs,
		"checkpoints_skipped": recStats.CheckpointsSkipped,
		"segments":            recStats.Segments,
		"records":             recStats.Records,
		"ops":                 recStats.Ops,
		"torn_bytes":          recStats.TornBytes,
	}
	if recErr != nil {
		rec["error"] = recErr.Error()
	}
	out["recovery"] = rec
	if degradeErr != nil {
		out["degraded_error"] = degradeErr.Error()
	}
	// bench/ reads count here until ROADMAP's bench-only change.
	ckpt := map[string]any{"count": ckptCount}
	if ckptLastErr != nil {
		ckpt["last_error"] = ckptLastErr.Error()
	}
	out["checkpoints"] = ckpt
	return out
}
