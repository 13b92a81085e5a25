package kvstore

import (
	"fmt"
	"slices"
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

// OpResult is the outcome of one batch operation: Val carries Get's value
// (and Add's result), Found whether Get/Delete found the key, OK whether
// CAS succeeded / Put inserted.
type OpResult struct {
	Val   uint64
	Found bool
	OK    bool
}

// System is the STM a Store runs on: it runs the operations' atomic
// blocks and, as a Quiescer, the shards' growths (core.TM is one).
type System[T txn.Tx] interface {
	txn.System[T]
	Quiescer
}

// Store binds a Map to its STM and a descriptor pool, exposing the
// self-contained operations a server handler calls: each runs exactly one
// atomic block on a pooled descriptor. The transactional Map methods
// remain available for callers composing their own blocks.
type Store[T txn.Tx] struct {
	sys  System[T]
	m    *Map[T]
	pool *TxPool[T]
	// snap is sys's snapshot view when it provides one (TinySTM with
	// Config.Snapshots): multi-key read-only work — all-Get batches, Len,
	// Scan — then runs in MVCC snapshot mode, wait-free under write
	// pressure, instead of as classic read-only transactions that abort
	// whenever a concurrent writer moves the clock past their snapshot.
	snap txn.SnapshotSystem[T]
	// irr is sys's irrevocable runner when it has one (core.TM): an
	// update batch of at least bulkOps ops runs through it.
	irr irrevocable[T]
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

	// The operations' carriers, recycled: see pointOp and batchOp.
	pointFree freeList[pointOp[T]]
	batchFree freeList[batchOp[T]]
}

// freeList recycles the carriers of one kind of operation. A carrier lost
// to a panic unwinding through its borrower is simply collected.
type freeList[O any] struct {
	//stm:allow-atomic guards the free-list; carriers are borrowed and returned outside transactions
	mu   sync.Mutex
	free []*O
}

// get returns a recycled carrier, or nil when there is none.
func (f *freeList[O]) get() (o *O) {
	f.mu.Lock()
	if n := len(f.free); n > 0 {
		o, f.free = f.free[n-1], f.free[:n-1]
	}
	f.mu.Unlock()
	return o
}

func (f *freeList[O]) put(o *O) {
	f.mu.Lock()
	f.free = append(f.free, o)
	f.mu.Unlock()
}

// NewStore builds the Map inside sys and wraps it.
func NewStore[T txn.Tx](sys System[T], shards, buckets uint64) *Store[T] {
	s := &Store[T]{sys: sys, m: New[T](sys, shards, buckets), pool: NewTxPool[T](sys)}
	// The type assertion alone is not enough: core.TM satisfies the
	// interface even with the sidecar disabled (AtomicSnap then degrades
	// to AtomicRO), and Scan's bounded per-shard fallback must engage in
	// exactly that case.
	if ss, ok := sys.(txn.SnapshotSystem[T]); ok && ss.SnapshotsEnabled() {
		s.snap = ss
	}
	if ir, ok := sys.(irrevocable[T]); ok {
		s.irr = ir
	}
	return s
}

// irrevocable is an STM that can run a body alone behind its freeze
// barrier, with plain loads and stores (core.TM.Irrevocable).
type irrevocable[T txn.Tx] interface {
	Irrevocable(tx T, fn func(T))
}

// atomicRO runs body as a snapshot transaction when the system offers
// snapshot mode, as a classic read-only transaction otherwise.
func (s *Store[T]) atomicRO(tx T, body func(T)) {
	if s.snap != nil {
		s.snap.AtomicSnap(tx, body)
		return
	}
	s.sys.AtomicRO(tx, body)
}

// SetShardHeat attaches the per-shard heat map (sized for this store via
// NewShardHeat(Map().Shards())). Attach before traffic starts.
func (s *Store[T]) SetShardHeat(h *obs.ShardHeat) { s.heat = h }

// Map exposes the underlying transactional map.
func (s *Store[T]) Map() *Map[T] { return s.m }

// Close releases the pooled descriptors back to the TM. The Store must be
// idle.
func (s *Store[T]) Close() { s.pool.Close() }

// pointOp carries one single-key operation through its atomic block:
// arguments in, results out, and the five bodies. A body written as a
// closure where it is called captures its results by reference and
// escapes through the System interface — four heap allocations around a
// Get whose transaction makes none — so the bodies are built once per
// pointOp, over its fields, and the ops are recycled (Store.getOp).
type pointOp[T txn.Tx] struct {
	// In: val is Put's value, Add's delta and CAS's new value; old is
	// CAS's expected value; sh is key's shard.
	key, val, old, sh uint64
	// Out: res is Get's value and Add's result; flag is found (Get,
	// Delete), inserted (Put) or swapped (CAS); grow asks for a Grow of the
	// shard after the commit. attempts counts the body's executions for
	// the heat map.
	res        uint64
	flag, grow bool
	attempts   int

	get, put, del, cas, add func(T)
}

func newPointOp[T txn.Tx](s *Store[T]) *pointOp[T] {
	o := &pointOp[T]{}
	o.get = func(tx T) {
		//stm:allow-effect heat-map retry counter: monotone, reported after commit, never read in-body
		o.attempts++
		o.res, o.flag = s.m.Get(tx, o.key)
	}
	o.put = func(tx T) {
		//stm:allow-effect heat-map retry counter: monotone, reported after commit, never read in-body
		o.attempts++
		o.flag = s.m.Put(tx, o.key, o.val)
		o.grow = o.flag && s.m.NeedsGrow(tx, o.sh)
		s.redo(tx, txn.RedoPut, o.key, o.val)
	}
	o.del = func(tx T) {
		//stm:allow-effect heat-map retry counter: monotone, reported after commit, never read in-body
		o.attempts++
		o.flag = s.m.Delete(tx, o.key)
		if o.flag {
			s.redo(tx, txn.RedoDelete, o.key, 0)
		}
	}
	o.cas = func(tx T) {
		//stm:allow-effect heat-map retry counter: monotone, reported after commit, never read in-body
		o.attempts++
		o.flag = s.m.CAS(tx, o.key, o.old, o.val)
		if o.flag {
			s.redo(tx, txn.RedoPut, o.key, o.val)
		}
	}
	o.add = func(tx T) {
		//stm:allow-effect heat-map retry counter: monotone, reported after commit, never read in-body
		o.attempts++
		o.res = s.m.Add(tx, o.key, o.val)
		o.grow = s.m.NeedsGrow(tx, o.sh)
		s.redo(tx, txn.RedoPut, o.key, o.res)
	}
	return o
}

// getOp borrows a pointOp armed with the operation's arguments.
func (s *Store[T]) getOp(key, val, old uint64) *pointOp[T] {
	o := s.pointFree.get()
	if o == nil {
		o = newPointOp(s)
	}
	o.key, o.val, o.old, o.sh = key, val, old, s.m.Shard(key)
	o.grow, o.attempts = false, 0
	return o
}

// putOp records the finished op against its shard's heat and recycles it.
func (s *Store[T]) putOp(o *pointOp[T]) {
	if s.heat != nil {
		s.heat.Record(o.sh, o.attempts)
	}
	s.pointFree.put(o)
}

// Get returns key's value via a read-only transaction.
func (s *Store[T]) Get(key uint64) (val uint64, found bool) {
	tx := s.pool.Get()
	defer s.pool.Put(tx)
	o := s.getOp(key, 0, 0)
	s.sys.AtomicRO(tx, o.get)
	val, found = o.res, o.flag
	s.putOp(o)
	return val, found
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
	tx := s.pool.Get()
	defer s.pool.Put(tx)
	o := s.getOp(key, val, old)
	switch kind {
	case OpPut:
		s.sys.Atomic(tx, o.put)
		res.OK = o.flag
	case OpDelete:
		s.sys.Atomic(tx, o.del)
		res.Found = o.flag
	case OpCAS:
		s.sys.Atomic(tx, o.cas)
		res.OK = o.flag
	case OpAdd:
		s.sys.Atomic(tx, o.add)
		res.Val = o.res
	default:
		panic(fmt.Sprintf("kvstore: %v is not a single-key update", kind))
	}
	t = s.ticket(tx)
	sh, grow := o.sh, o.grow
	s.putOp(o)
	if grow {
		s.tryGrow(sh)
	}
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

// Grows returns how many shard growths have happened. Each one rehashed a
// whole shard behind the freeze barrier, in a freeze of its own or in its
// bulk batch's, so every transaction that wanted to run meanwhile waited
// at Begin.
func (s *Store[T]) Grows() uint64 { return s.grows.Load() }

// Delete removes key, reporting whether it was present.
func (s *Store[T]) Delete(key uint64) (found bool) {
	res, t := s.Update(OpDelete, key, 0, 0)
	s.waitDurable(t)
	return res.Found
}

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

// Len returns the live key count via a read-only transaction (snapshot
// mode when available: the per-shard counters span every stripe of the
// map's headers, exactly the scattered read set writers keep moving).
func (s *Store[T]) Len() (n uint64) {
	tx := s.pool.Get()
	defer s.pool.Put(tx)
	s.atomicRO(tx, func(tx T) { n = s.m.Len(tx) })
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
// abort. Without it (TL2, or Snapshots off) a full-table read-only
// transaction under write pressure can retry unboundedly — the very
// starvation the sidecar exists to fix — so the fallback degrades to one
// read-only transaction PER SHARD, each reading its shard's count and,
// until the limit is met, its pairs: each shard is internally consistent
// and bounded, but the shards are not mutually consistent. An attempt
// starts from what the committed shards left, so a retry starts clean.
func (s *Store[T]) Scan(limit int) (pairs []KV, total uint64) {
	tx := s.pool.Get()
	defer s.pool.Put(tx)
	more := func(k, v uint64) bool {
		pairs = append(pairs, KV{Key: k, Val: v})
		return limit <= 0 || len(pairs) < limit
	}
	if s.snap != nil {
		s.snap.AtomicSnap(tx, func(tx T) {
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
		s.sys.AtomicRO(tx, func(tx T) {
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
// An update batch of at least bulkOps ops, on an STM that can run it
// irrevocably, stops the world for its run instead: every other
// transaction waits at Begin until it commits, and the shards it tipped
// over their load factor grow before it lets them go.
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
	tx := s.pool.Get()
	defer s.pool.Put(tx)
	o := s.batchFree.get()
	if o == nil {
		o = newBatchOp(s)
	}
	o.ops, o.res = ops, res
	var t txn.DurableTicket
	if readOnly {
		// All-Get batches take the snapshot fast path when the system
		// offers it: one consistent timestamp, no validation, no aborts
		// from concurrent writers. The body is shared with the update
		// path, so it statically reaches the mutators and redo capture,
		// but the all-Get guard above makes those arms unreachable here.
		//stm:allow-write every op is OpGet on this path; the write arms cannot execute
		//stm:allow-redo every op is OpGet on this path; the redo arms cannot execute
		s.atomicRO(tx, o.body)
	} else if len(ops) >= bulkOps && s.irr != nil {
		s.irr.Irrevocable(tx, o.bulk)
		t = s.ticket(tx)
		s.grows.Add(uint64(o.grown))
	} else {
		s.sys.Atomic(tx, o.body)
		t = s.ticket(tx)
		for _, sh := range o.grow {
			s.tryGrow(sh)
		}
	}
	o.ops, o.res = nil, nil
	s.batchFree.put(o)
	return t
}

// batchOp carries one batch through its atomic block, for pointOp's reason:
// the body is built once over the op's fields and the ops are recycled.
type batchOp[T txn.Tx] struct {
	ops []Op       // in: the caller's batch
	res []OpResult // out: the caller's result slots, aligned with ops
	// grow lists, once the body has run, the shards the attempt's inserts
	// left over their load factor — almost always none.
	grow []uint64
	// grown counts the shards the last irrevocable run grew.
	grown int
	// body runs the ops; bulk runs them irrevocably and then grows the
	// shards they tipped, still frozen.
	body, bulk func(T)
}

func newBatchOp[T txn.Tx](s *Store[T]) *batchOp[T] {
	o := &batchOp[T]{}
	// inserted notes the shard of a key an op of this attempt may have
	// added; once the ops have run, the body keeps the noted shards that are
	// over their load factor. That is pointOp's in-body growth probe, taken
	// once per shard instead of once per insert (a preload batch is a
	// thousand of them): the shard's counters are in the attempt's read set
	// already, so asking costs no transaction.
	inserted := func(key uint64) {
		if sh := s.m.Shard(key); !slices.Contains(o.grow, sh) {
			o.grow = append(o.grow, sh)
		}
	}
	o.body = func(tx T) {
		// Neither an aborted attempt's notes nor the last batch's carry over.
		o.grow = o.grow[:0]
		for i, op := range o.ops {
			r := &o.res[i]
			*r = OpResult{}
			switch op.Kind {
			case OpGet:
				r.Val, r.Found = s.m.Get(tx, op.Key)
			case OpPut:
				r.OK = s.m.Put(tx, op.Key, op.Val)
				r.Found = !r.OK
				if r.OK {
					inserted(op.Key)
				}
				s.redo(tx, txn.RedoPut, op.Key, op.Val)
			case OpDelete:
				r.Found = s.m.Delete(tx, op.Key)
				if r.Found {
					s.redo(tx, txn.RedoDelete, op.Key, 0)
				}
			case OpCAS:
				r.OK = s.m.CAS(tx, op.Key, op.Old, op.Val)
				if r.OK {
					s.redo(tx, txn.RedoPut, op.Key, op.Val)
				}
			case OpAdd:
				r.Val = s.m.Add(tx, op.Key, op.Val)
				r.OK = true
				inserted(op.Key)
				s.redo(tx, txn.RedoPut, op.Key, r.Val)
			default:
				panic(fmt.Sprintf("kvstore: unknown batch op %d", int(op.Kind)))
			}
		}
		over := o.grow[:0]
		for _, sh := range o.grow {
			if s.m.NeedsGrow(tx, sh) {
				over = append(over, sh)
			}
		}
		o.grow = over
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
