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

// ParseOpKind maps a wire name to an OpKind.
func ParseOpKind(s string) (OpKind, error) {
	switch s {
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
		return 0, fmt.Errorf("kvstore: unknown op %q (get, put, delete, cas, add)", s)
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

// Store binds a Map to its STM and a descriptor pool, exposing the
// self-contained operations a server handler calls: each runs exactly one
// atomic block on a pooled descriptor. The transactional Map methods
// remain available for callers composing their own blocks.
type Store[T txn.Tx] struct {
	sys  txn.System[T]
	m    *Map[T]
	pool *TxPool[T]
	// snap is sys's snapshot view when it provides one (TinySTM with
	// Config.Snapshots): multi-key read-only work — all-Get batches, Len,
	// Scan — then runs in MVCC snapshot mode, wait-free under write
	// pressure, instead of as classic read-only transactions that abort
	// whenever a concurrent writer moves the clock past their snapshot.
	snap txn.SnapshotSystem[T]
	// durable/sink: redo capture and ack-after-durable waiting; see
	// durable.go. Set once via EnableDurability before traffic starts.
	durable bool
	sink    DurabilitySink
	// ckptPairs is the pair count of the last CheckpointScan, the next
	// one's size hint.
	//stm:allow-atomic checkpoint size hint, read and written outside any transaction
	ckptPairs atomic.Int64
	// heat, when attached (SetShardHeat), receives one op plus the retry
	// count per single-key operation, keyed by shard — the server's
	// contention heat map. Nil costs every op one predictable branch.
	heat *obs.ShardHeat

	// opFree recycles the single-key operations' pointOps.
	//stm:allow-atomic guards the pointOp free-list; ops are borrowed and returned outside transactions
	opMu   sync.Mutex
	opFree []*pointOp[T]
}

// NewStore builds the Map inside sys and wraps it.
func NewStore[T txn.Tx](sys txn.System[T], shards, buckets uint64) *Store[T] {
	s := &Store[T]{sys: sys, m: New[T](sys, shards, buckets), pool: NewTxPool[T](sys)}
	// The type assertion alone is not enough: core.TM satisfies the
	// interface even with the sidecar disabled (AtomicSnap then degrades
	// to AtomicRO), and Scan's bounded per-shard fallback must engage in
	// exactly that case.
	if ss, ok := sys.(txn.SnapshotSystem[T]); ok && ss.SnapshotsEnabled() {
		s.snap = ss
	}
	return s
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
	// Delete), inserted (Put) or swapped (CAS); grow asks for a follow-up
	// Grow of the shard. attempts counts the body's executions for the
	// heat map.
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

// getOp borrows a pointOp armed with the operation's arguments. An op
// lost to a panic unwinding through its caller is simply collected.
func (s *Store[T]) getOp(key, val, old uint64) *pointOp[T] {
	var o *pointOp[T]
	s.opMu.Lock()
	if n := len(s.opFree); n > 0 {
		o, s.opFree = s.opFree[n-1], s.opFree[:n-1]
	}
	s.opMu.Unlock()
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
	s.opMu.Lock()
	s.opFree = append(s.opFree, o)
	s.opMu.Unlock()
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
// acks after durability (EnableDurability with a sink): the update is
// committed and visible, and the caller must not acknowledge it until the
// ticket resolves. When an insert tips the owning shard over its load
// factor, the shard is grown in a follow-up freeze/rehash transaction
// before Update returns.
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
	// The ticket must be read before tryGrow: the growth transaction's
	// Begin clears it from the descriptor.
	t = s.ticket(tx)
	sh, grow := o.sh, o.grow
	s.putOp(o)
	if grow {
		s.tryGrow(tx, sh)
	}
	return res, t
}

// Put upserts key and reports whether it was inserted. Like Delete, CAS,
// Add and Apply it is the blocking form of Update/ApplyTicket: where the
// store acks after durability it returns once the commit is durable.
func (s *Store[T]) Put(key, val uint64) (inserted bool) {
	res, t := s.Update(OpPut, key, val, 0)
	s.waitDurable(t)
	return res.OK
}

// tryGrow runs the freeze/rehash transaction as best-effort housekeeping:
// the caller's own operation has already committed, so a growth failure —
// the arena cannot fit a doubled directory — must not surface as an error
// for an operation that succeeded. The shard keeps serving with longer
// chains and the next insert retries. Any panic other than the shared
// exhaustion sentinel keeps propagating.
func (s *Store[T]) tryGrow(tx T, sh uint64) {
	defer func() {
		if r := recover(); r != nil && r != txn.ErrSpaceExhausted {
			panic(r)
		}
	}()
	s.sys.Atomic(tx, func(tx T) { s.m.Grow(tx, sh) })
}

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

// KV is one key/value pair returned by Scan.
type KV struct {
	Key uint64 `json:"key"`
	Val uint64 `json:"val"`
}

// Scan iterates the whole table, returning up to limit pairs (all of
// them when limit <= 0) and the total number of live keys it walked.
//
// With snapshot mode available it runs as ONE snapshot transaction: a
// single commit-ordered point in time that concurrent writers cannot
// abort. Without it (TL2, or Snapshots off) a full-table read-only
// transaction under write pressure can retry unboundedly — the very
// starvation the sidecar exists to fix — so the fallback degrades to one
// read-only transaction PER SHARD: each shard is internally consistent
// and bounded, but the shards are not mutually consistent. The pair
// slices are rebuilt on retry, so a fresh attempt starts clean.
func (s *Store[T]) Scan(limit int) (pairs []KV, total uint64) {
	tx := s.pool.Get()
	defer s.pool.Put(tx)
	if s.snap != nil {
		s.snap.AtomicSnap(tx, func(tx T) {
			pairs = pairs[:0]
			total = 0
			s.m.Range(tx, func(k, v uint64) bool {
				total++
				if limit <= 0 || len(pairs) < limit {
					pairs = append(pairs, KV{Key: k, Val: v})
				}
				return true
			})
		})
		return pairs, total
	}
	for sh := uint64(0); sh < s.m.Shards(); sh++ {
		var shardPairs []KV
		var shardTotal uint64
		s.sys.AtomicRO(tx, func(tx T) {
			shardPairs = shardPairs[:0]
			shardTotal = 0
			s.m.RangeShard(tx, sh, func(k, v uint64) bool {
				shardTotal++
				if limit <= 0 || len(pairs)+len(shardPairs) < limit {
					shardPairs = append(shardPairs, KV{Key: k, Val: v})
				}
				return true
			})
		})
		pairs = append(pairs, shardPairs...)
		total += shardTotal
	}
	return pairs, total
}

// Apply executes ops as ONE atomic transaction: either every operation's
// effect commits or none does, and all Gets observe one consistent
// snapshot. Results are positionally aligned with ops. A batch that only
// reads runs read-only.
func (s *Store[T]) Apply(ops []Op) []OpResult {
	res, t := s.ApplyTicket(ops)
	s.waitDurable(t)
	return res
}

// ApplyTicket is Apply returning the commit's durability ticket unwaited,
// under Update's contract; a read-only batch has none.
func (s *Store[T]) ApplyTicket(ops []Op) ([]OpResult, txn.DurableTicket) {
	res := make([]OpResult, len(ops))
	readOnly := true
	for _, op := range ops {
		if op.Kind != OpGet {
			readOnly = false
			break
		}
	}
	tx := s.pool.Get()
	defer s.pool.Put(tx)
	body := func(tx T) {
		for i, op := range ops {
			res[i] = OpResult{}
			switch op.Kind {
			case OpGet:
				res[i].Val, res[i].Found = s.m.Get(tx, op.Key)
			case OpPut:
				res[i].OK = s.m.Put(tx, op.Key, op.Val)
				res[i].Found = !res[i].OK
				s.redo(tx, txn.RedoPut, op.Key, op.Val)
			case OpDelete:
				res[i].Found = s.m.Delete(tx, op.Key)
				if res[i].Found {
					s.redo(tx, txn.RedoDelete, op.Key, 0)
				}
			case OpCAS:
				res[i].OK = s.m.CAS(tx, op.Key, op.Old, op.Val)
				if res[i].OK {
					s.redo(tx, txn.RedoPut, op.Key, op.Val)
				}
			case OpAdd:
				res[i].Val = s.m.Add(tx, op.Key, op.Val)
				res[i].OK = true
				s.redo(tx, txn.RedoPut, op.Key, res[i].Val)
			default:
				panic(fmt.Sprintf("kvstore: unknown batch op %d", int(op.Kind)))
			}
		}
	}
	if readOnly {
		// All-Get batches take the snapshot fast path when the system
		// offers it: one consistent timestamp, no validation, no aborts
		// from concurrent writers. The body is shared with the update
		// path, so it statically reaches the mutators and redo capture,
		// but the all-Get guard above makes those arms unreachable here.
		//stm:allow-write every op is OpGet on this path; the write arms cannot execute
		//stm:allow-redo every op is OpGet on this path; the redo arms cannot execute
		s.atomicRO(tx, body)
		return res, nil
	}
	s.sys.Atomic(tx, body)
	t := s.ticket(tx)
	s.growTouched(tx, ops)
	return res, t
}

// growTouched runs the freeze/rehash transaction for every shard a batch's
// inserts pushed past the load factor.
func (s *Store[T]) growTouched(tx T, ops []Op) {
	seen := make(map[uint64]bool, 4)
	for _, op := range ops {
		if op.Kind != OpPut && op.Kind != OpAdd {
			continue
		}
		sh := s.m.Shard(op.Key)
		if seen[sh] {
			continue
		}
		seen[sh] = true
		var grow bool
		s.sys.AtomicRO(tx, func(tx T) { grow = s.m.NeedsGrow(tx, sh) })
		if grow {
			s.tryGrow(tx, sh)
		}
	}
}
