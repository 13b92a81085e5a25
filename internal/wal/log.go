package wal

import (
	"cmp"
	"errors"
	"fmt"
	"path"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tinystm/internal/obs"
	"tinystm/internal/txn"
)

// ErrLogClosed resolves tickets that were still staged when the log shut
// down: their records were never made durable.
var ErrLogClosed = errors.New("wal: log closed")

// Config configures a Log.
type Config struct {
	// Dir is the WAL directory (segments and checkpoints live together).
	Dir string
	// FS is the filesystem; nil means the real OS.
	FS FS
	// SegmentBytes rotates to a fresh segment once the current one grows
	// past this size. <= 0 picks a default (4 MiB).
	SegmentBytes int64
	// BatchDelay is how long the flusher dallies after waking before it
	// drains the staging stack, trading ack latency for larger batches
	// (fewer fsyncs). Zero flushes as soon as work appears.
	BatchDelay time.Duration
	// OnError, if set, is called exactly once when a write or fsync fails
	// and the log enters its sticky failed state. Called from the flusher
	// goroutine; must not block on WAL operations.
	OnError func(error)
	// FlushNs, if set, receives the duration of every write+fsync flush
	// in nanoseconds; BatchOps receives each flushed batch's record
	// count. Recorded from the flusher goroutine, off the append path.
	FlushNs  *obs.Histogram
	BatchOps *obs.Histogram
}

// Stats is a point-in-time snapshot of log counters.
type Stats struct {
	// Appends counts records staged; Batches counts flusher drains that
	// reached disk — a frame was written and fsynced; a barrier-only
	// drain (Flush or Rotate with nothing staged) is not one; Syncs counts
	// fsyncs: one per batch, one per segment header and, for a reserved
	// segment, one more when it is sealed (cut back to its frames);
	// Rotations counts segment rollovers.
	Appends   uint64
	Batches   uint64
	Syncs     uint64
	Rotations uint64
	// Segment is the index of the segment currently being written.
	Segment uint64
	// Preallocated reports whether that segment got its reservation, so
	// that a batch's fsync writes data blocks only. False means frames
	// grow the file — the platform or the filesystem has no fallocate —
	// and every sync also commits the new size: correct, and dearer.
	Preallocated bool
	// Failed reports the sticky failed state.
	Failed bool
}

// inlineOps is how many redo ops a ticket stores in itself: a point update
// logs one and a two-key transfer two. A longer record is staged in a
// buffer from the log's free list (Log.bufs).
const inlineOps = 2

// reserveSlack is what a segment reserves beyond SegmentBytes: room for
// the batch that carries it over the threshold. A frame that outruns even
// this just grows the file, as every frame did before reservations.
const reserveSlack = 64 << 10

// Pending is the durability ticket for one Append: it resolves once the
// record's batch is fsynced (nil error) or the log fails. It satisfies
// txn.DurableTicket so the STM redo hook can return it opaquely.
//
// A ticket carries no channel. Most are never blocked on — a binary
// connection claims its tickets and is told when they resolve — so Append
// pays for one atomic word and a counter inside the ticket and for nothing
// else. owner is the whole state machine: nil while open, the claiming
// Owner once claimed, &resolvedMark once the outcome is in err (resolve
// swaps it in, so a claim either lands before the swap and is told, or
// fails after it). wg (raised once, at creation) is what a caller that
// must block parks on: the runtime's semaphore behind it orders the last
// waiter-in against the resolver's wake-up, so neither side can miss the
// other, and a blocked Wait allocates nothing either.
type Pending struct {
	rec    Record
	next   *Pending
	inline [inlineOps]txn.RedoOp
	buf    *[]txn.RedoOp // rec.Ops' buffer from Log.bufs, until encoded
	err    error         // written before owner is swapped to &resolvedMark
	owner  atomic.Pointer[Owner]
	wg     sync.WaitGroup
}

// Owner is told when tickets it claimed resolve. Resolved runs on the
// flusher goroutine — or in Close, for the tickets the flusher never
// drained — once per pass that resolved any of the owner's tickets, after
// every ticket of that pass is resolved: the owner then finds all of them
// Done at once. Resolved must not block, or the whole log waits on it.
// An Owner claims tickets of one Log only.
type Owner struct {
	Resolved func()
	pass     uint64 // the log's pass that last told it; the resolver's own
}

// resolvedMark is the owner of every resolved ticket.
var resolvedMark Owner

// newPending returns an unresolved ticket for a record at (epoch, ts).
func newPending(epoch, ts uint64) *Pending {
	p := &Pending{rec: Record{Epoch: epoch, TS: ts}}
	p.wg.Add(1)
	return p
}

// Done reports whether the ticket has resolved, without blocking: Wait
// then returns at once.
func (p *Pending) Done() bool { return p.owner.Load() == &resolvedMark }

// Claim makes o the ticket's owner, to be told when it resolves. It
// returns false, and claims nothing, once the ticket has resolved (or if
// it is claimed already): nobody will tell o about it, and the caller
// reads the outcome itself.
func (p *Pending) Claim(o *Owner) bool { return p.owner.CompareAndSwap(nil, o) }

// Wait blocks until the record is durable and returns the outcome. Any
// number of goroutines may wait on one ticket.
func (p *Pending) Wait() error {
	if !p.Done() {
		p.wg.Wait()
	}
	return p.err
}

// resolve publishes the ticket's outcome, wakes its waiters and returns
// its owner, if one claimed it. Called exactly once per ticket: by the
// flusher, or by Close after the flusher has exited.
func (p *Pending) resolve(err error) *Owner {
	p.err = err
	o := p.owner.Swap(&resolvedMark)
	p.wg.Done()
	return o
}

// Log is the write-ahead log: a lock-free staging stack drained by one
// flusher goroutine into checksummed, length-prefixed, fsynced segments.
type Log struct {
	cfg  Config
	head atomic.Pointer[Pending]
	wake chan struct{}

	// mu guards the current segment (file handle, index, size) and the
	// sticky failure. The flusher holds it across a batch; Rotate takes it
	// from checkpointer context. Nothing else does: housekeeping that
	// queued here would stall every commit behind it.
	mu       sync.Mutex
	cur      File
	curIndex uint64
	curSize  int64
	failErr  error
	// segment and reserved mirror curIndex and "cur holds a reservation"
	// for readers that must not wait for an fsync in flight (Stats,
	// DropSegmentsBefore).
	segment  atomic.Uint64
	reserved atomic.Bool

	// The flusher's scratch, reused from batch to batch: the drained
	// tickets, their records, and the encoded frame.
	batch []*Pending
	recs  []Record
	frame []byte
	// bufs is the free list of *[]txn.RedoOp that records of more than
	// inlineOps ops are staged in. The flusher gives each back once its
	// batch is encoded, so a stream of bulk batches cycles through one or
	// two buffers instead of copying each into a fresh one.
	bufs sync.Pool
	// pass numbers the resolving passes; owners collects one pass's
	// owners to tell. Both belong to the flusher, then to Close.
	pass   uint64
	owners []*Owner

	failed    atomic.Bool
	errorOnce sync.Once

	closing   chan struct{}
	closeOnce sync.Once
	flusherWG sync.WaitGroup

	appends   atomic.Uint64
	batches   atomic.Uint64
	syncs     atomic.Uint64
	rotations atomic.Uint64
}

// Open creates (or reopens) the log in cfg.Dir and starts the flusher.
// Existing segments are never appended to: writing always begins on a
// fresh segment numbered after the highest on disk.
//
// A segment Open finds stops being the newest one the moment Open
// returns, and recovery reads anything but the newest strictly: if a
// crash may have left that segment torn or still reserved, the caller
// recovers with Replay, makes a checkpoint of the result durable and
// removes the old segments (RemoveSegmentsBefore) BEFORE it opens the
// log. A log that was Closed has sealed its last segment and can simply
// be reopened.
func Open(cfg Config) (*Log, error) {
	l, err := open(cfg)
	if err != nil {
		return nil, err
	}
	l.flusherWG.Add(1)
	go l.run()
	return l, nil
}

// open is Open without the flusher: the log's state, on a fresh segment.
func open(cfg Config) (*Log, error) {
	if cfg.FS == nil {
		cfg.FS = OS
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 4 << 20
	}
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", cfg.Dir, err)
	}
	names, err := cfg.FS.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: scan %s: %w", cfg.Dir, err)
	}
	var maxSeg uint64
	for _, name := range names {
		if idx, ok := parseSegName(name); ok && idx > maxSeg {
			maxSeg = idx
		}
	}
	l := &Log{
		cfg:     cfg,
		wake:    make(chan struct{}, 1),
		closing: make(chan struct{}),
	}
	l.mu.Lock()
	err = l.openSegmentLocked(maxSeg + 1)
	l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Append stages one committed transaction's redo records and returns its
// durability ticket. Safe for any number of concurrent callers; called
// from inside STM commit publication, so it must not block. The ops
// slice is copied (the transaction descriptor reuses it): into the ticket
// itself when it fits, else into a buffer from the log's free list, which
// the flusher takes back once the record is encoded. Once that list holds
// a buffer as large, the ticket is the call's only allocation.
func (l *Log) Append(epoch, ts uint64, ops []txn.RedoOp) *Pending {
	p := newPending(epoch, ts)
	if len(ops) <= inlineOps {
		p.rec.Ops = p.inline[:copy(p.inline[:], ops)]
	} else {
		buf, _ := l.bufs.Get().(*[]txn.RedoOp)
		if buf == nil {
			buf = new([]txn.RedoOp)
		}
		*buf = append((*buf)[:0], ops...)
		p.rec.Ops, p.buf = *buf, buf
	}
	l.push(p)
	l.appends.Add(1)
	return p
}

func (l *Log) push(p *Pending) {
	for {
		old := l.head.Load()
		p.next = old
		if l.head.CompareAndSwap(old, p) {
			break
		}
	}
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Flush blocks until everything staged before the call is durable. It
// works by staging a zero-op barrier ticket: the flusher resolves tickets
// strictly after fsyncing their batch, and the barrier's batch includes
// all earlier stages.
func (l *Log) Flush() error {
	if err := l.FailedErr(); err != nil {
		return err
	}
	p := newPending(0, 0)
	l.push(p)
	return p.Wait()
}

// Rotate flushes, seals the current segment and starts a new one,
// returning the new segment's index. Everything staged before the call
// lives in segments below the returned index — the checkpointer calls
// Rotate, snapshots the store (which by then reflects every one of those
// records), writes the checkpoint, and hands the returned index to
// DropSegmentsBefore.
func (l *Log) Rotate() (uint64, error) {
	if err := l.Flush(); err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failErr != nil {
		return 0, l.failErr
	}
	if err := l.rotateLocked(); err != nil {
		l.failLocked(err)
		return 0, err
	}
	return l.curIndex, nil
}

// DropSegmentsBefore removes every segment with index < idx. Only ever
// called with an index obtained from Rotate after a checkpoint covering
// the dropped prefix is durable.
//
// It takes no lock. Segments below the one being written are sealed —
// nothing writes, rotates or reopens them — so the directory scan, the
// removals and the directory fsync run beside the flusher instead of in
// front of it; idx is capped at the current segment so a wrong argument
// cannot reach the live file.
func (l *Log) DropSegmentsBefore(idx uint64) error {
	return RemoveSegmentsBefore(l.cfg.FS, l.cfg.Dir, min(idx, l.segment.Load()))
}

// RemoveSegmentsBefore deletes the segments in dir with index < idx,
// oldest first, once a checkpoint covering them is durable. The order is
// the point: truncation must remove a prefix of the log, never a middle
// or an end, or replay's last-record-wins fold stops being valid — and a
// crash part-way through still leaves a suffix whose newest segment is
// the one recovery reads leniently.
func RemoveSegmentsBefore(fs FS, dir string, idx uint64) error {
	if fs == nil {
		fs = OS
	}
	names, err := fs.ReadDir(dir) // sorted: zero-padded indices ascend
	if err != nil {
		return err
	}
	removed := false
	for _, name := range names {
		if i, ok := parseSegName(name); ok && i < idx {
			if err := fs.Remove(path.Join(dir, name)); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		return fs.SyncDir(dir)
	}
	return nil
}

// FailedErr returns the sticky failure, or nil while the log is healthy.
func (l *Log) FailedErr() error {
	if !l.failed.Load() {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failErr
}

// Stats returns a snapshot of the log's counters. Lock-free: a scrape
// never queues behind an fsync.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:      l.appends.Load(),
		Batches:      l.batches.Load(),
		Syncs:        l.syncs.Load(),
		Rotations:    l.rotations.Load(),
		Segment:      l.segment.Load(),
		Preallocated: l.reserved.Load(),
		Failed:       l.failed.Load(),
	}
}

// Close stops the flusher after a final drain, then seals and closes the
// segment. The caller must have stopped producing appends (detach the
// redo hook first); any ticket staged during shutdown resolves with
// ErrLogClosed.
func (l *Log) Close() error {
	l.closeOnce.Do(func() { close(l.closing) })
	l.flusherWG.Wait()
	// The flusher is gone; resolve any stragglers that raced the final
	// drain so no waiter hangs and no owner goes untold.
	l.resolveBatch(l.takeBatch(), ErrLogClosed)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil
	}
	var err error
	if l.failErr == nil {
		err = l.sealLocked()
	}
	if cerr := l.cur.Close(); err == nil {
		err = cerr
	}
	l.cur = nil
	return err
}

// run is the flusher: wake, optionally dally to grow the batch, drain,
// write one frame, fsync once, resolve tickets, maybe rotate. It never
// starts a frame before the one ahead of it is synced, which is what lets
// recovery say that bytes behind a bad frame prove the frame was acked.
func (l *Log) run() {
	defer l.flusherWG.Done()
	for {
		select {
		case <-l.wake:
			if l.cfg.BatchDelay > 0 {
				time.Sleep(l.cfg.BatchDelay)
			}
			l.commitBatch(l.takeBatch())
		case <-l.closing:
			// Final drain: whatever is staged either gets made durable
			// (healthy log) or resolved with the sticky error.
			l.commitBatch(l.takeBatch())
			return
		}
	}
}

// takeBatch swaps the staging stack empty and returns the tickets in
// append order, in the flusher's reused slice (valid until the next call).
// The Treiber stack yields LIFO, so reverse; then a stable sort by
// (epoch, ts) makes each frame — and therefore each segment —
// timestamp-ordered. Per-key correctness never depends on the sort:
// conflicting commits serialize through their stripe lock, so append
// order already agrees with per-key timestamp order and the stable sort
// preserves it; the sort only tidies the interleaving of unrelated keys.
func (l *Log) takeBatch() []*Pending {
	batch := l.batch[:0]
	for p := l.head.Swap(nil); p != nil; p = p.next {
		batch = append(batch, p)
	}
	slices.Reverse(batch)
	slices.SortStableFunc(batch, func(a, b *Pending) int {
		if c := cmp.Compare(a.rec.Epoch, b.rec.Epoch); c != 0 {
			return c
		}
		return cmp.Compare(a.rec.TS, b.rec.TS)
	})
	l.batch = batch
	return batch
}

// commitBatch makes one drained batch durable — one frame, one fsync —
// and resolves its tickets. It clears batch on the way out, so the reused
// slice does not pin the resolved tickets until the next drain.
func (l *Log) commitBatch(batch []*Pending) {
	if len(batch) == 0 {
		return
	}
	l.mu.Lock()
	err := l.failErr
	if err == nil {
		recs := l.recs[:0]
		for _, p := range batch {
			if len(p.rec.Ops) > 0 {
				recs = append(recs, p.rec)
			}
		}
		if len(recs) > 0 {
			t0 := time.Now()
			l.frame = appendFrame(l.frame[:0], recs)
			// The frame holds the ops now: the buffers can stage the
			// next batch's records while this one is written and synced.
			for _, p := range batch {
				if p.buf != nil {
					p.rec.Ops = nil
					l.bufs.Put(p.buf)
					p.buf = nil
				}
			}
			err = l.writeAndSyncLocked(l.frame)
			if l.cfg.FlushNs != nil {
				l.cfg.FlushNs.Record(uint64(time.Since(t0)))
			}
			if l.cfg.BatchOps != nil {
				l.cfg.BatchOps.Record(uint64(len(recs)))
			}
			if err == nil {
				l.batches.Add(1)
			}
		}
		clear(recs)
		l.recs = recs
		if err != nil {
			l.failLocked(err)
		} else if l.curSize > l.cfg.SegmentBytes {
			// Rotation failure poisons the log but not this batch:
			// its bytes are already durable in the sealed segment.
			if rerr := l.rotateLocked(); rerr != nil {
				l.failLocked(rerr)
			}
		}
	}
	l.mu.Unlock()
	l.resolveBatch(batch, err)
}

// resolveBatch is one resolving pass: it resolves every ticket of batch
// with err, clearing the slice as it goes, and then tells each owner that
// claimed any of them, once.
func (l *Log) resolveBatch(batch []*Pending, err error) {
	l.pass++
	owners := l.owners[:0]
	for i, p := range batch {
		if o := p.resolve(err); o != nil && o.pass != l.pass {
			o.pass = l.pass
			owners = append(owners, o)
		}
		batch[i] = nil
	}
	for i, o := range owners {
		o.Resolved()
		owners[i] = nil
	}
	l.owners = owners
}

func (l *Log) writeAndSyncLocked(frame []byte) error {
	if _, err := l.cur.Write(frame); err != nil {
		return fmt.Errorf("wal: write segment %d: %w", l.curIndex, err)
	}
	l.curSize += int64(len(frame))
	l.syncs.Add(1)
	if err := l.cur.Sync(); err != nil {
		return fmt.Errorf("wal: fsync segment %d: %w", l.curIndex, err)
	}
	return nil
}

// failLocked enters the sticky failed state. Every in-flight and future
// ticket resolves with the error; OnError fires once so the server can
// flip to degraded read-only mode.
func (l *Log) failLocked(err error) {
	if l.failErr != nil {
		return
	}
	l.failErr = err
	l.failed.Store(true)
	if l.cfg.OnError != nil {
		l.errorOnce.Do(func() { l.cfg.OnError(err) })
	}
}

// rotateLocked seals the current segment and opens the next index, in
// that order: the successor is not created until its predecessor is cut
// back to its frames and durable, so recovery never meets a reserved tail
// anywhere but in the newest segment.
func (l *Log) rotateLocked() error {
	if err := l.sealLocked(); err != nil {
		return err
	}
	if err := l.cur.Close(); err != nil {
		return fmt.Errorf("wal: close segment %d: %w", l.curIndex, err)
	}
	l.cur = nil
	if err := l.openSegmentLocked(l.curIndex + 1); err != nil {
		return err
	}
	l.rotations.Add(1)
	return nil
}

// sealLocked gives back what the current segment reserved and did not
// use, durably. Every frame in it is already synced; this sync is for the
// size.
func (l *Log) sealLocked() error {
	if !l.reserved.Load() {
		return nil
	}
	if err := l.cur.(Reserver).Truncate(l.curSize); err != nil {
		return fmt.Errorf("wal: seal segment %d: %w", l.curIndex, err)
	}
	l.syncs.Add(1)
	if err := l.cur.Sync(); err != nil {
		return fmt.Errorf("wal: fsync sealed segment %d: %w", l.curIndex, err)
	}
	l.reserved.Store(false)
	return nil
}

// openSegmentLocked creates segment idx, reserves it, and makes its
// header — and its directory entry — durable before any frame can land in
// it, so a segment that exists at recovery time always starts with a
// parseable header unless the crash came before the header did (an empty
// or all-zero newest segment, which the parser tolerates).
func (l *Log) openSegmentLocked(idx uint64) error {
	p := path.Join(l.cfg.Dir, segName(idx))
	f, err := l.cfg.FS.Create(p)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", p, err)
	}
	reserved := false
	if r, ok := f.(Reserver); ok {
		if r.Reserve(l.cfg.SegmentBytes+reserveSlack) == nil {
			reserved = true
		} else if err := r.Truncate(0); err != nil {
			// Refused is fine, the segment will grow by appending; but a
			// reservation given up half-way must not stay behind as a
			// zero tail that nothing would ever cut off.
			f.Close()
			return fmt.Errorf("wal: reset %s: %w", p, err)
		}
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: write header %s: %w", p, err)
	}
	l.syncs.Add(1)
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: fsync header %s: %w", p, err)
	}
	if err := l.cfg.FS.SyncDir(l.cfg.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: fsync dir %s: %w", l.cfg.Dir, err)
	}
	l.cur = f
	l.curIndex = idx
	l.segment.Store(idx)
	l.reserved.Store(reserved)
	l.curSize = int64(len(segMagic))
	return nil
}

func segName(idx uint64) string { return fmt.Sprintf("wal-%020d.seg", idx) }

func parseSegName(name string) (uint64, bool) {
	return parseIndexedName(name, "wal-", ".seg")
}

func parseIndexedName(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+20+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	idx, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return idx, true
}
