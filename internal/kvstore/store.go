package kvstore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tinystm/internal/obs"
	"tinystm/internal/txn"
)

// OpKind names one batch operation.
type OpKind int

// The batch operation set.
const (
	OpGet OpKind = iota
	OpPut
	OpDelete
	OpCAS
	OpAdd
)

// String returns the wire name used by cmd/stmkvd's batch endpoint.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpCAS:
		return "cas"
	case OpAdd:
		return "add"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// ParseOpKind maps a wire name to an OpKind. It takes the name's bytes, so
// a decoder can look one up where it lies without allocating a string.
func ParseOpKind(name []byte) (OpKind, error) {
	switch string(name) {
	case "get":
		return OpGet, nil
	case "put":
		return OpPut, nil
	case "delete", "del":
		return OpDelete, nil
	case "cas":
		return OpCAS, nil
	case "add", "incr":
		return OpAdd, nil
	default:
		return 0, fmt.Errorf("kvstore: unknown op %q (get, put, delete, cas, add)", name)
	}
}

// Op is one operation of a multi-key atomic batch. Val is the value for
// Put, the delta for Add, and the new value for CAS; Old is CAS's expected
// value.
type Op struct {
	Kind OpKind
	Key  uint64
	Val  uint64
	Old  uint64
}

// OpResult is the outcome of one batch operation: the wire's own result
// type, so a server hands ApplyInto the slots its answer encodes.
type OpResult = txn.OpResult

// Tx is the descriptor a Store runs on: besides the transactional word
// operations, it captures redo records for the write-ahead log and tells
// a snapshot scan its (clock epoch, snapshot timestamp) position
// (core.Tx is one).
type Tx interface {
	txn.Tx
	// Redo records one effective state change of the current attempt.
	Redo(op txn.RedoOp)
	// RedoTicket is the durability ticket of the descriptor's last commit.
	RedoTicket() txn.DurableTicket
	// Snapshot returns the attempt's snapshot interval.
	Snapshot() (start, end uint64)
	// ClockEpoch returns the clock's roll-over epoch.
	ClockEpoch() uint64
}

// System is the STM a Store runs on (core.TM is one): it runs the
// operations' atomic blocks, as a Quiescer the shards' growths, and:
type System[T Tx] interface {
	txn.System[T]
	Quiescer
	// SnapshotsEnabled reports whether an MVCC version sidecar backs
	// AtomicSnap. Without one AtomicSnap is AtomicRO, and Scan runs its
	// bounded per-shard fallback instead.
	SnapshotsEnabled() bool
	// AtomicSnap runs fn as a snapshot-mode read-only transaction: one
	// start timestamp, every read served at it, no conflict aborts. Multi-key
	// read-only work — all-Get batches, Len, Scan — runs in it, wait-free
	// under write pressure, where a classic read-only transaction aborts
	// whenever a concurrent writer moves the clock past its snapshot.
	AtomicSnap(tx T, fn func(T))
	// Irrevocable runs fn alone behind the freeze barrier, with plain
	// loads and stores: a batch of at least bulkOps updates runs in it.
	Irrevocable(tx T, fn func(T))
}

// Store binds a Map to its STM, exposing the self-contained operations a
// server handler calls. Each borrows one carrier (batchOp) and runs on the
// descriptor the carrier owns, so an operation takes one lock round trip
// for both, and descriptors are minted only as carriers are: never more
// than the operations ever in flight at once. A descriptor dropped instead
// of released would keep its TM slot forever, so every operation returns
// its carrier by defer, and Close releases the idle carriers' descriptors.
// The transactional Map methods remain available for callers composing
// their own blocks.
type Store[T Tx] struct {
	sys System[T]
	m   *Map[T]
	// sink, when set, turns on redo capture and ack-after-durable
	// waiting; see durable.go. Set once via EnableDurability before
	// traffic starts.
	sink DurabilitySink
	// ckptPairs is the pair count of the last CheckpointScan, the next
	// one's capacity.
	//stm:allow-atomic checkpoint size hint, read and written outside any transaction
	ckptPairs atomic.Int64
	// grows counts shard growths (Grows).
	//stm:allow-atomic bumped after a growth, outside every transaction
	grows atomic.Uint64
	// heat, when attached (SetShardHeat), receives one op plus the retry
	// count per single-key operation, keyed by shard — the server's
	// contention heat map. Nil costs every op one predictable branch.
	heat *obs.ShardHeat

	// The free list's lock is written by every operation; this keeps it
	// off the cache line of the fields above, which every operation reads.
	// Sharing it cost two goroutines' Gets ~20 % (BenchmarkKVGetParallel).
	_ [64]byte
	// free recycles the operations' carriers (see batchOp); after Close
	// a returned carrier's descriptor is released instead.
	//stm:allow-atomic guards the carrier free list; carriers are borrowed and returned outside transactions
	freeMu sync.Mutex
	free   []*batchOp[T]
	closed bool
}

// NewStore builds the Map inside sys and wraps it.
func NewStore[T Tx](sys System[T], shards, buckets uint64) *Store[T] {
	return &Store[T]{sys: sys, m: New[T](sys, shards, buckets)}
}

// SetShardHeat attaches the per-shard heat map (sized for this store via
// NewShardHeat(Map().Shards())). Attach before traffic starts.
func (s *Store[T]) SetShardHeat(h *obs.ShardHeat) { s.heat = h }

// Map exposes the underlying transactional map.
func (s *Store[T]) Map() *Map[T] { return s.m }

// Close releases the idle carriers' descriptors back to the TM. A carrier
// still borrowed releases its own when it comes back.
func (s *Store[T]) Close() {
	s.freeMu.Lock()
	free := s.free
	s.free, s.closed = nil, true
	s.freeMu.Unlock()
	for _, o := range free {
		txn.Release(o.tx)
	}
}

// Get returns key's value via a read-only transaction.
func (s *Store[T]) Get(key uint64) (val uint64, found bool) {
	o := s.point(Op{Kind: OpGet, Key: key})
	defer s.recycle(o)
	// The body is the update path's too, so it statically reaches the
	// mutators and redo capture, but an OpGet runs neither.
	//stm:allow-write the one op is OpGet; the write arms cannot execute
	//stm:allow-redo the one op is OpGet; the redo arms cannot execute
	s.sys.AtomicRO(o.tx, o.body)
	r := o.oneRes[0]
	s.heatPoint(o, key)
	return r.Val, r.Found
}

// Update runs one single-key update — Put, Delete, CAS (val is the new
// value, old the expected one) or Add (val is the delta) — and returns
// what the kind's own method returns (OK: Put inserted, CAS swapped; Found:
// Delete found the key; Val: Add's result) together with the commit's
// durability ticket, UNWAITED. The ticket is non-nil exactly when the store
// acks after durability (after EnableDurability): the update is
// committed and visible, and the caller must not acknowledge it until the
// ticket resolves. When an insert tips the owning shard over its load
// factor, the shard is grown behind the freeze barrier (Map.Grow) before
// Update returns.
func (s *Store[T]) Update(kind OpKind, key, val, old uint64) (res OpResult, t txn.DurableTicket) {
	if kind == OpGet {
		panic(fmt.Sprintf("kvstore: %v is not a single-key update", kind))
	}
	o := s.point(Op{Kind: kind, Key: key, Val: val, Old: old})
	defer s.recycle(o)
	s.sys.Atomic(o.tx, o.body)
	t = s.ticket(o.tx)
	// The batch result carries more than the kind's own field (a Put's
	// Found, an Add's OK); the single-key answer does not.
	switch r := o.oneRes[0]; kind {
	case OpPut, OpCAS:
		res.OK = r.OK
	case OpDelete:
		res.Found = r.Found
	case OpAdd:
		res.Val = r.Val
	}
	s.growTipped(o)
	s.heatPoint(o, key)
	return res, t
}

// Put upserts key and reports whether it was inserted. Like Delete, CAS,
// Add and Apply it is the blocking form of Update/ApplyInto: where the
// store acks after durability it returns once the commit is durable.
func (s *Store[T]) Put(key, val uint64) (inserted bool) {
	res, t := s.Update(OpPut, key, val, 0)
	s.waitDurable(t)
	return res.OK
}

// tryGrow grows shard sh once the operation that tipped it has committed.
// It is best-effort housekeeping: a growth the arena cannot fit changes
// nothing, and the shard keeps serving with longer chains until a later
// insert asks again. Map.Grow runs behind the freeze barrier, so with an
// observability sink on the TM every growth freeze, whether it grew the
// shard or found it already grown, lands in the FreezeNs histogram
// (stm_freeze_seconds) as a Reconfigure does; Grows counts the growths.
// A bulk batch needs no tryGrow: it grows what it tipped in its own
// freeze.
func (s *Store[T]) tryGrow(sh uint64) {
	if s.m.Grow(s.sys, sh) {
		s.grows.Add(1)
	}
}

// growTipped grows the shards the committed attempt of o tipped.
func (s *Store[T]) growTipped(o *batchOp[T]) {
	for _, sh := range o.grow {
		s.tryGrow(sh)
	}
}

// Grows returns how many shard growths have happened. Each one rehashed a
// whole shard behind the freeze barrier, in a freeze of its own or in its
// bulk batch's, so every transaction that wanted to run meanwhile waited
// at Begin.
func (s *Store[T]) Grows() uint64 { return s.grows.Load() }

// CAS atomically replaces key's value with new iff it currently is old.
func (s *Store[T]) CAS(key, old, new uint64) (ok bool) {
	res, t := s.Update(OpCAS, key, new, old)
	s.waitDurable(t)
	return res.OK
}

// Add atomically adds delta to key's value (inserting at delta when
// absent) and returns the new value.
func (s *Store[T]) Add(key, delta uint64) (val uint64) {
	res, t := s.Update(OpAdd, key, delta, 0)
	s.waitDurable(t)
	return res.Val
}

// Len returns the live key count via a snapshot transaction: the
// per-shard counters span every stripe of the map's headers, exactly the
// scattered read set writers keep moving.
func (s *Store[T]) Len() (n uint64) {
	o := s.borrow()
	defer s.recycle(o)
	s.sys.AtomicSnap(o.tx, func(tx T) { n = s.m.Len(tx) })
	return n
}

// KV is one key/value pair returned by Scan and CheckpointScan.
type KV = txn.KV

// Scan returns the first limit pairs of the table in shard, bucket, chain
// order (all of them when limit <= 0) and the number of live keys.
//
// A scan costs what it returns: the walk stops at the limit, and total is
// the sum of the per-shard count words, read in the same transaction as
// the pairs. That sum is exact, not an estimate: every insert and delete
// moves its shard's count in the transaction that links or unlinks the
// node, so any snapshot's counts equal what a full walk would count.
//
// With snapshot mode available it runs as ONE snapshot transaction: a
// single commit-ordered point in time that concurrent writers cannot
// abort. Without it (a TM with its sidecar off) a full-table read-only
// transaction under write pressure can retry unboundedly — the very
// starvation the sidecar exists to fix — so the fallback degrades to one
// read-only transaction PER SHARD, each reading its shard's count and,
// until the limit is met, its pairs: each shard is internally consistent
// and bounded, but the shards are not mutually consistent. An attempt
// starts from what the committed shards left, so a retry starts clean.
func (s *Store[T]) Scan(limit int) (pairs []KV, total uint64) {
	o := s.borrow()
	defer s.recycle(o)
	more := func(k, v uint64) bool {
		pairs = append(pairs, KV{Key: k, Val: v})
		return limit <= 0 || len(pairs) < limit
	}
	if s.sys.SnapshotsEnabled() {
		s.sys.AtomicSnap(o.tx, func(tx T) {
			total = s.m.Len(tx)
			n := total
			if limit > 0 {
				n = min(n, uint64(limit))
			}
			pairs = make([]KV, 0, n)
			if n > 0 {
				s.m.Range(tx, more)
			}
		})
		return pairs, total
	}
	for sh := uint64(0); sh < s.m.Shards(); sh++ {
		done := len(pairs)
		var count uint64
		s.sys.AtomicRO(o.tx, func(tx T) {
			pairs = pairs[:done]
			count, _ = s.m.ShardLoad(tx, sh)
			if count > 0 && (limit <= 0 || done < limit) {
				s.m.RangeShard(tx, sh, more)
			}
		})
		total += count
	}
	return pairs, total
}

// Apply executes ops as ONE atomic transaction: either every operation's
// effect commits or none does, and all Gets observe one consistent
// snapshot. Results are positionally aligned with ops. A batch that only
// reads runs read-only.
func (s *Store[T]) Apply(ops []Op) []OpResult {
	res := make([]OpResult, len(ops))
	s.waitDurable(s.ApplyInto(ops, res))
	return res
}

// bulkOps is the shortest update batch ApplyInto runs irrevocably
// (core.TM.Irrevocable): alone behind the freeze barrier, with plain loads
// and stores, no read or write set, and its tipped shards grown in the
// same freeze. It is the measured crossover of BenchmarkBulkCrossover
// (internal/microbench): a batch of k fresh-key puts and one deleting
// them again, into a 65 536-key table, run transactionally (tx) or
// irrevocably (irr); the cost per key with the batches streamed alone,
// and the 99th percentile of a point Get that another goroutine runs
// while they stream (write-back, snapshots on, 2 vCPUs, medians of 5):
//
//	k                  8     16    32    64    256   1024
//	ns/key      tx     530   544   472   431   420   487
//	            irr    286   262   224   208   212   250
//	Get p99 µs  tx     1.45  1.56  1.42  1.88  4.78  3.46
//	            irr    2.00  1.75  1.89  1.81  3.85  1.82
//
// An irrevocable run costs half as much per key at every k, but below 64
// a Get waits longer behind a stream of frozen worlds than behind
// transactions it aborts on; from 64 on it waits less (at 64 by less than
// the runs' spread). bulkOps is that smallest k at which the irrevocable
// run wins both. It sits far above every batch steady traffic sends (a
// transfer is 2 ops), so only preloads, recovery and long /batch requests
// stop the world.
const bulkOps = 64

// ApplyInto is Apply into the caller's result slice, which must be as long
// as ops, returning the commit's durability ticket unwaited, under Update's
// contract; a read-only batch has none. A caller that keeps both slices
// between batches pays no allocation for one. Neither slice is retained.
// An update batch of at least bulkOps ops stops the world for its run
// instead: every other transaction waits at Begin until it commits, and
// the shards it tipped over their load factor grow before it lets them go.
func (s *Store[T]) ApplyInto(ops []Op, res []OpResult) txn.DurableTicket {
	if len(res) != len(ops) {
		panic(fmt.Sprintf("kvstore: %d result slots for %d batch ops", len(res), len(ops)))
	}
	readOnly := true
	for _, op := range ops {
		if op.Kind != OpGet {
			readOnly = false
			break
		}
	}
	o := s.borrow()
	defer func() {
		// Back onto the carrier's inline arrays, panics included: the
		// point ops run on them and do not re-arm (re-arming per point op
		// measured slower).
		o.ops, o.res = o.one[:], o.oneRes[:]
		s.recycle(o)
	}()
	o.ops, o.res = ops, res
	var t txn.DurableTicket
	if readOnly {
		// All-Get batches take the snapshot fast path: one consistent
		// timestamp, no validation, no aborts from concurrent writers.
		// The body is shared with the update path, so it statically
		// reaches the mutators and redo capture, but the all-Get guard
		// above makes those arms unreachable here.
		//stm:allow-write every op is OpGet on this path; the write arms cannot execute
		//stm:allow-redo every op is OpGet on this path; the redo arms cannot execute
		s.sys.AtomicSnap(o.tx, o.body)
	} else if len(ops) >= bulkOps {
		s.sys.Irrevocable(o.tx, o.bulk)
		t = s.ticket(o.tx)
		s.grows.Add(uint64(o.grown))
	} else {
		s.sys.Atomic(o.tx, o.body)
		t = s.ticket(o.tx)
		s.growTipped(o)
	}
	return t
}

// batchOp carries every operation — a Get, an Update, a whole batch, a
// scan — through its atomic block, on the descriptor it owns. A body
// written as a closure where it is called captures its results by
// reference and escapes through the System interface — heap allocations
// around a Get whose transaction makes none — so the bodies are built once
// per carrier, over its fields, and the carriers are recycled
// (Store.borrow). The descriptor is minted with its carrier and lives as
// long: recycled with it, released by Store.Close, or by recycle after
// Close.
type batchOp[T Tx] struct {
	tx  T
	ops []Op       // in: the operations
	res []OpResult // out: their result slots, aligned with ops
	// one and oneRes are a Get's or an Update's operation and result:
	// ops and res point at them whenever no batch is running.
	one    [1]Op
	oneRes [1]OpResult
	// tally is the attempt's net key count change per shard it touched;
	// the body moves each shard's count word once, by it.
	tally []shardTally
	// grow lists, once the body has run, the shards the attempt's inserts
	// left over their load factor — almost always none.
	grow []uint64
	// grown counts the shards the last irrevocable run grew.
	grown int
	// attempts counts the body's runs, for the heat map.
	attempts int
	// body runs the ops; bulk runs them irrevocably and then grows the
	// shards they tipped, still frozen.
	body, bulk func(T)
}

// shardTally is a batch's net change n (two's complement) to shard's key
// count.
type shardTally struct {
	shard, n uint64
}

// borrow returns a recycled carrier, or a new one with a new descriptor.
// Its borrower returns it with a deferred recycle: a panic unwinding
// through the operation (ErrSpaceExhausted from a full arena) then leaks
// no TM slot.
func (s *Store[T]) borrow() (o *batchOp[T]) {
	s.freeMu.Lock()
	if n := len(s.free); n > 0 {
		o, s.free = s.free[n-1], s.free[:n-1]
	}
	s.freeMu.Unlock()
	if o == nil {
		o = newBatchOp(s)
	}
	return o
}

// recycle returns a borrowed carrier to the free list; after Close it
// releases the carrier's descriptor instead.
func (s *Store[T]) recycle(o *batchOp[T]) {
	s.freeMu.Lock()
	if s.closed {
		s.freeMu.Unlock()
		txn.Release(o.tx)
		return
	}
	s.free = append(s.free, o)
	s.freeMu.Unlock()
}

// point borrows a carrier armed with the one operation of a Get or an
// Update.
func (s *Store[T]) point(one Op) *batchOp[T] {
	o := s.borrow()
	o.one[0] = one
	o.attempts = 0
	return o
}

// heatPoint records a Get's or an Update's run against its key's shard
// heat. Batches record no heat.
func (s *Store[T]) heatPoint(o *batchOp[T], key uint64) {
	if s.heat != nil {
		s.heat.Record(s.m.Shard(key), o.attempts)
	}
}

func newBatchOp[T Tx](s *Store[T]) *batchOp[T] {
	o := &batchOp[T]{tx: s.sys.NewTx()}
	o.ops, o.res = o.one[:], o.oneRes[:]
	// tally adds n keys to the net change of key's shard. The ops leave
	// the count words alone, and once they have run the body stores each
	// touched shard's count once: a bulk run's undo log then holds one
	// entry per shard instead of one per insert, and a transactional
	// batch one write-set entry. It then probes each shard whose count
	// rose for its load factor: the count is in the attempt's read set
	// already, so asking costs no transaction.
	tally := func(key, n uint64) {
		sh := s.m.Shard(key)
		for i := range o.tally {
			if o.tally[i].shard == sh {
				o.tally[i].n += n
				return
			}
		}
		o.tally = append(o.tally, shardTally{shard: sh, n: n})
	}
	o.body = func(tx T) {
		//stm:allow-effect heat-map retry counter: monotone, reported after commit, never read in-body
		o.attempts++
		// Neither an aborted attempt's notes nor the last batch's carry over.
		o.tally, o.grow = o.tally[:0], o.grow[:0]
		for i, op := range o.ops {
			r := &o.res[i]
			*r = OpResult{}
			switch op.Kind {
			case OpGet:
				r.Val, r.Found = s.m.Get(tx, op.Key)
			case OpPut:
				r.OK = s.m.put(tx, op.Key, op.Val)
				r.Found = !r.OK
				if r.OK {
					tally(op.Key, 1)
				}
				s.redo(tx, txn.RedoPut, op.Key, op.Val)
			case OpDelete:
				r.Found = s.m.delete(tx, op.Key)
				if r.Found {
					tally(op.Key, ^uint64(0))
					s.redo(tx, txn.RedoDelete, op.Key, 0)
				}
			case OpCAS:
				r.OK = s.m.CAS(tx, op.Key, op.Old, op.Val)
				if r.OK {
					s.redo(tx, txn.RedoPut, op.Key, op.Val)
				}
			case OpAdd:
				var inserted bool
				r.Val, inserted = s.m.add(tx, op.Key, op.Val)
				r.OK = true
				if inserted {
					tally(op.Key, 1)
				}
				s.redo(tx, txn.RedoPut, op.Key, r.Val)
			default:
				panic(fmt.Sprintf("kvstore: unknown batch op %d", int(op.Kind)))
			}
		}
		for _, t := range o.tally {
			if t.n == 0 {
				continue
			}
			s.m.addShardCount(tx, t.shard, t.n)
			if int64(t.n) > 0 && s.m.NeedsGrow(tx, t.shard) {
				o.grow = append(o.grow, t.shard)
			}
		}
	}
	sp := s.sys.Space()
	o.bulk = func(tx T) {
		o.body(tx)
		grown := 0
		for _, sh := range o.grow {
			if s.m.rehash(sp, sh) {
				grown++
			}
		}
		o.grown = grown
	}
	return o
}
