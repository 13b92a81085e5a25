// Package kvstore implements a sharded, transactional, in-memory
// key-value map whose every word — bucket directories, hash nodes, counts
// — lives in STM-managed memory. It is the repository's first
// service-shaped workload: where the intset structures reproduce the
// paper's microbenchmarks, the kvstore backs an actual server
// (cmd/stmkvd) whose traffic the online tuning runtime adapts to.
//
// Layout inside the mem.Space (every operation's accesses go through
// core.Tx, so each is a real STM transaction; only a growth rewrites words
// directly, and a bulk batch's transaction runs irrevocably):
//
//	shard header (one per shard, padded to 8 words):
//	    +0  dir      address of the bucket directory
//	    +1  nbuckets directory length (power of two)
//	    +2  count    live keys in the shard
//	bucket directory: nbuckets words, each the head of a node chain (0 = empty)
//	node: 3 words [key, value, next]
//
// A key hashes once; the low bits pick the shard, the high bits the bucket
// within the shard's directory, so growing one shard never moves keys
// across shards. Growing is not a transaction: Map.Grow rehashes the shard
// with plain mem.Space loads and stores behind the STM's freeze barrier
// (core.TM.Quiesce, the barrier of clock roll-over and Reconfigure). It
// allocates a quadrupled directory, relinks every node, swaps the header
// and frees the old directory while no transaction is in flight, so no
// transaction sees a half-grown shard or builds a shard-sized read set,
// and every transaction that wanted to run meanwhile — on any shard —
// waits at Begin. Each growth's stall lands in the freeze histogram
// (stm_freeze_seconds on stmkvd's /metrics) beside the Reconfigures'.
//
// A bulk batch — an update batch of at least bulkOps ops, a preload's or a
// recovery's — stops the world too. Store.ApplyInto runs it as one
// irrevocable transaction (core.TM.Irrevocable): alone behind the same
// barrier, with plain loads and stores and no read or write set, and it
// grows the shards it tipped before it lets the barrier down, so the
// batch and its growths are one freeze. Its commit, its redo records and
// its answers are those of any batch.
//
// A growth relinks every node of its shard, so the growth factor sets what
// filling a shard costs. The relinks form a geometric series ending at the
// last growth's count c: 4c/3 nodes when each growth quadruples, 2c when
// each doubles. Over a fill to n keys that is n/3 to 4n/3 relinks, in half
// as many growths, against n to 2n: sixteen 64-bucket shards filled
// with 4 096 keys each grow 32 times and relink ~20.5 k nodes, where
// doubling grew them 64 times and relinked ~61.5 k. The price is a
// directory of up to one word per key, against half a word.
package kvstore

import (
	"fmt"
	"math/bits"

	"tinystm/internal/core"
	"tinystm/internal/mem"
)

const (
	hdrWords  = 8 // shard header stride (padded: shards land on distinct stripes)
	hdrDir    = 0
	hdrNBkts  = 1
	hdrCount  = 2
	nodeWords = 3 // [key, value, next]

	// loadFactor is the mean chain length at which NeedsGrow triggers.
	loadFactor = 4
	// growFactor is how many times larger Grow makes a directory.
	growFactor = 4
	// maxBucketsPerShard caps directory growth so a pathological workload
	// cannot ask the arena for unbounded directories.
	maxBucketsPerShard = 1 << 20
)

// Map is a transactional hash map from uint64 keys to uint64 values. The
// Go-side struct holds only immutable placement data (base address, shard
// count); all mutable state lives in the Space, so any number of
// goroutines may use a Map concurrently, each through its own descriptor.
//
// All methods but Grow take the caller's transaction and perform plain
// transactional loads/stores: they compose freely into larger atomic
// blocks (multi-key batches, read-modify-write, cross-map transfers).
type Map struct {
	base      uint64
	shards    uint64
	shardBits uint
}

// New allocates and initializes a Map with the given shard count and
// per-shard initial bucket count (both powers of two) inside one
// transaction of tm.
func New(tm *core.TM, shards, buckets uint64) *Map {
	if shards == 0 || bits.OnesCount64(shards) != 1 {
		panic(fmt.Sprintf("kvstore: shards (%d) must be a power of two", shards))
	}
	if buckets == 0 || bits.OnesCount64(buckets) != 1 || buckets > maxBucketsPerShard {
		panic(fmt.Sprintf("kvstore: buckets (%d) must be a power of two <= %d", buckets, maxBucketsPerShard))
	}
	m := &Map{shards: shards, shardBits: uint(bits.TrailingZeros64(shards))}
	tx := tm.NewTx()
	defer tx.Release()
	tm.Atomic(tx, func(tx *core.Tx) {
		m.base = tx.Alloc(int(shards) * hdrWords)
		for s := uint64(0); s < shards; s++ {
			dir := tx.Alloc(int(buckets))
			hdr := m.base + s*hdrWords
			tx.Store(hdr+hdrDir, dir)
			tx.Store(hdr+hdrNBkts, buckets)
			tx.Store(hdr+hdrCount, 0)
		}
	})
	return m
}

// Shards returns the (static) shard count.
func (m *Map) Shards() uint64 { return m.shards }

// hash is the SplitMix64 finalizer: a full-avalanche mix so dense integer
// keys (the load generator's Zipf ranks) spread over shards and buckets.
func hash(key uint64) uint64 {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Shard returns the shard index key maps to.
func (m *Map) Shard(key uint64) uint64 { return hash(key) & (m.shards - 1) }

// bucket returns the address of the bucket-head word covering key, reading
// the shard's directory transactionally.
func (m *Map) bucket(tx *core.Tx, key uint64) uint64 {
	h := hash(key)
	hdr := m.base + (h&(m.shards-1))*hdrWords
	dir := tx.Load(hdr + hdrDir)
	nb := tx.Load(hdr + hdrNBkts)
	return dir + ((h >> m.shardBits) & (nb - 1))
}

// lookup walks the chain at key's bucket. It returns the node address and
// the address of the link pointing at it (the bucket head word or a
// predecessor's next word); node is 0 when the key is absent.
func (m *Map) lookup(tx *core.Tx, key uint64) (node, link uint64) {
	link = m.bucket(tx, key)
	for {
		node = tx.Load(link)
		if node == 0 {
			return 0, link
		}
		if tx.Load(node) == key {
			return node, link
		}
		link = node + 2
	}
}

// Get returns the value stored under key within the caller's transaction.
func (m *Map) Get(tx *core.Tx, key uint64) (uint64, bool) {
	node, _ := m.lookup(tx, key)
	if node == 0 {
		return 0, false
	}
	return tx.Load(node + 1), true
}

// Put inserts or updates key. It reports whether the key was inserted
// (false: an existing value was overwritten).
func (m *Map) Put(tx *core.Tx, key, val uint64) bool {
	inserted := m.put(tx, key, val)
	if inserted {
		m.addCount(tx, key, 1)
	}
	return inserted
}

// put is Put leaving the shard's count to the caller: a batch moves each
// count word once (Store's body), not once per insert.
func (m *Map) put(tx *core.Tx, key, val uint64) bool {
	node, link := m.lookup(tx, key)
	if node != 0 {
		tx.Store(node+1, val)
		return false
	}
	m.link(tx, link, key, val)
	return true
}

// link inserts a new node for key at link, the empty link lookup stopped at.
func (m *Map) link(tx *core.Tx, link, key, val uint64) {
	n := tx.Alloc(nodeWords)
	tx.Store(n, key)
	tx.Store(n+1, val)
	tx.Store(n+2, 0) // chain tail: lookup stopped at an empty link
	tx.Store(link, n)
}

// Delete removes key, reporting whether it was present.
func (m *Map) Delete(tx *core.Tx, key uint64) bool {
	found := m.delete(tx, key)
	if found {
		m.addCount(tx, key, ^uint64(0))
	}
	return found
}

// delete is Delete leaving the shard's count to the caller.
func (m *Map) delete(tx *core.Tx, key uint64) bool {
	node, link := m.lookup(tx, key)
	if node == 0 {
		return false
	}
	tx.Store(link, tx.Load(node+2))
	tx.Free(node, nodeWords)
	return true
}

// CAS replaces key's value with new iff the key is present with value old.
func (m *Map) CAS(tx *core.Tx, key, old, new uint64) bool {
	node, _ := m.lookup(tx, key)
	if node == 0 || tx.Load(node+1) != old {
		return false
	}
	tx.Store(node+1, new)
	return true
}

// add increments key's value by delta (two's-complement, so negative
// deltas are ^uint64 wraps), inserting the key at delta when absent. It
// returns the new value and whether the key was inserted, leaving the
// shard's count to the caller. This is the read-modify-write primitive
// batches need (a Get+Put pair in one batch could not see its own
// intermediate).
func (m *Map) add(tx *core.Tx, key, delta uint64) (v uint64, inserted bool) {
	node, link := m.lookup(tx, key)
	if node != 0 {
		v = tx.Load(node+1) + delta
		tx.Store(node+1, v)
		return v, false
	}
	m.link(tx, link, key, delta)
	return delta, true
}

// addCount adjusts the owning shard's live-key counter.
func (m *Map) addCount(tx *core.Tx, key uint64, delta uint64) {
	m.addShardCount(tx, m.Shard(key), delta)
}

// addShardCount adds delta (two's complement) to shard s's live-key
// counter.
func (m *Map) addShardCount(tx *core.Tx, s uint64, delta uint64) {
	c := m.base + s*hdrWords + hdrCount
	tx.Store(c, tx.Load(c)+delta)
}

// Range calls fn for every key/value pair within the caller's
// transaction, stopping early when fn returns false. Iteration order is
// shard, then bucket, then chain position — stable only within one
// transaction. Composed with a snapshot-mode transaction this is the
// wait-free full-table scan; inside an update transaction it reads (and
// therefore validates) every word of the map.
func (m *Map) Range(tx *core.Tx, fn func(key, val uint64) bool) {
	for s := uint64(0); s < m.shards; s++ {
		if !m.RangeShard(tx, s, fn) {
			return
		}
	}
}

// RangeShard calls fn for every key/value pair of shard s, reporting
// false when fn stopped the iteration early.
func (m *Map) RangeShard(tx *core.Tx, s uint64, fn func(key, val uint64) bool) bool {
	hdr := m.base + s*hdrWords
	dir := tx.Load(hdr + hdrDir)
	nb := tx.Load(hdr + hdrNBkts)
	for b := uint64(0); b < nb; b++ {
		node := tx.Load(dir + b)
		for node != 0 {
			if !fn(tx.Load(node), tx.Load(node+1)) {
				return false
			}
			node = tx.Load(node + 2)
		}
	}
	return true
}

// Len sums the per-shard counters within the caller's transaction.
func (m *Map) Len(tx *core.Tx) uint64 {
	var n uint64
	for s := uint64(0); s < m.shards; s++ {
		n += tx.Load(m.base + s*hdrWords + hdrCount)
	}
	return n
}

// ShardLoad returns shard s's live-key count and bucket count.
func (m *Map) ShardLoad(tx *core.Tx, s uint64) (count, buckets uint64) {
	hdr := m.base + s*hdrWords
	return tx.Load(hdr + hdrCount), tx.Load(hdr + hdrNBkts)
}

// NeedsGrow reports whether shard s's mean chain length exceeds the load
// factor and the directory can still grow.
func (m *Map) NeedsGrow(tx *core.Tx, s uint64) bool {
	return needsGrow(m.ShardLoad(tx, s))
}

func needsGrow(count, buckets uint64) bool {
	return buckets < maxBucketsPerShard && count > buckets*loadFactor
}

// Grow quadruples shard s's bucket directory (up to maxBucketsPerShard)
// and rehashes its chains as a plain rewrite of the space under tm's
// freeze barrier; the soundness argument is above core.TM.Quiesce. With
// every transaction quiescent it re-checks the shard's count against the
// load factor, allocates the new directory, relinks every node (no node is
// copied — only next pointers and bucket heads change), swaps the header
// and frees the old directory at once. It reports false, changing
// nothing, when the shard no longer needs growing (an earlier growth got
// there first) or the space cannot fit the new directory: growth is
// best-effort, and the shard keeps serving with longer chains.
func (m *Map) Grow(tm *core.TM, s uint64) (grew bool) {
	tm.Quiesce(func() { grew = m.rehash(tm.Space(), s) })
	return grew
}

// rehash is Grow's rewrite of shard s in sp, which must be frozen: behind
// Quiesce, or inside an irrevocable run (core.TM.Irrevocable) once its
// last transactional store is done, since the rewrite logs nothing a
// panic could undo.
func (m *Map) rehash(sp *mem.Space, s uint64) bool {
	hdr := mem.Addr(m.base + s*hdrWords)
	nb := sp.Load(hdr + hdrNBkts)
	if !needsGrow(sp.Load(hdr+hdrCount), nb) {
		return false
	}
	nb2 := min(nb*growFactor, maxBucketsPerShard)
	dir2 := sp.Alloc(int(nb2))
	if dir2 == mem.Nil {
		return false
	}
	dir := mem.Addr(sp.Load(hdr + hdrDir))
	for b := range mem.Addr(nb) {
		for node := mem.Addr(sp.Load(dir + b)); node != mem.Nil; {
			next := mem.Addr(sp.Load(node + 2))
			head := dir2 + mem.Addr((hash(sp.Load(node))>>m.shardBits)&(nb2-1))
			sp.Store(node+2, sp.Load(head))
			sp.Store(head, uint64(node))
			node = next
		}
	}
	sp.Store(hdr+hdrDir, uint64(dir2))
	sp.Store(hdr+hdrNBkts, nb2)
	sp.Free(dir, int(nb))
	return true
}
