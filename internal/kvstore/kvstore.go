// Package kvstore implements a sharded, transactional, in-memory
// key-value map whose table — shard headers, bucket directories, bucket
// lines — lives in STM-managed memory, so two transactions conflict only
// when they touch a common key's words (or words sharing its lock). Each
// shard's live-key count is not one of those words: it is a plain counter
// beside the Map that Store moves once an operation has committed, and it
// serves only as the load-factor trigger and a size hint. It is the
// repository's first service-shaped workload: where the intset structures
// reproduce the paper's microbenchmarks, the kvstore backs an actual
// server (cmd/stmkvd) whose traffic the online tuning runtime adapts to.
//
// Layout inside the mem.Space (every operation's accesses go through
// core.Tx, so each is a real STM transaction; only a growth rewrites words
// directly, and a bulk batch's transaction runs irrevocably):
//
//	shard header (one per shard, one line):
//	    +0  dir      address of the bucket directory
//	    +1  nbuckets directory length in lines (power of two)
//	bucket directory: nbuckets lines, each the head line of a bucket
//	bucket line: 8 words [meta, next, k0, v0, k1, v1, k2, v2]
//	    meta  bit i set: slot i holds a key
//	    next  the bucket's next (overflow) line, 0 at the tail
//
// Every line is line-aligned (mem.Space.Alloc aligns blocks whose size is
// a multiple of mem.LineWords), so a point Get reads the shard's header
// and then, at the load factor below, usually one data line, and at
// #shifts 0 the lock words of that line's eight words are adjacent too.
// A chain of 3-word nodes read the directory word and then a node per
// chain position, each on a line of its own. An insert fills the first
// free slot of the bucket's chain or appends a line; a delete clears its
// meta bit (and overwrites the dead value, see delete) and leaves the line
// in the chain for the next insert.
//
// A key hashes once; the low bits pick the shard, the high bits the bucket
// within the shard's directory, so growing one shard never moves keys
// across shards. Growing is not a transaction: Map.Grow rehashes the shard
// with plain mem.Space loads and stores behind the STM's freeze barrier
// (core.TM.Quiesce, the barrier of clock roll-over and Reconfigure). It
// allocates a directory growFactor times longer, copies every entry into
// it (the old bucket's overflow lines become the new buckets' as they
// drain), swaps the header and frees the old directory while no
// transaction is in flight, so no transaction sees a half-grown shard or
// builds a shard-sized read set, and every transaction that wanted to run
// meanwhile — on any shard — waits at Begin. Each growth's stall lands in
// the freeze histogram (stm_freeze_seconds on stmkvd's /metrics) beside
// the Reconfigures'. Freeing a directory of a page or more gives its pages
// back to the kernel (mem.Space.Free), so a superseded one does not stay
// resident.
//
// A bulk batch — an update batch of at least bulkOps ops, a preload's or a
// recovery's — stops the world too. Store.ApplyInto runs it as one
// irrevocable transaction (core.TM.Irrevocable): alone behind the same
// barrier, with plain loads and stores and no read or write set. Its
// commit, its redo records and its answers are those of any batch, and so
// is what follows: once the barrier is down, each shard it tipped grows
// through Map.Grow, in a freeze of its own, as after a transactional
// batch. Map.Grow is the store's one growth path.
//
// The constants come from this table: 16 shards of 64 buckets filled with
// keys 0…n-1, arena bytes per key (directories, overflow lines and
// headers over n; live words, not the freed ones) and the mean lines a
// Get of a present key reads, with the growths the fill makes. The chain
// of 3-word nodes it replaced (loadFactor 4, growFactor 4) took 29.4
// B/key at 65 536 keys in 41 growths.
//
//	slots loadFactor growFactor   65 536 keys          16 384 keys     1 024 keys
//	3     3          2            36.7 B 1.11 80 gr    36.7 B 1.11     66.4 B 1.03
//	3     4          2            32.4 B 1.23 73 gr    32.2 B 1.22     66.4 B 1.03
//	3     5          2            27.0 B 1.39 64 gr    27.0 B 1.39     66.4 B 1.03
//	3     4          4            48.4 B 1.18 41 gr    48.2 B 1.17     66.4 B 1.03
//	3     5          4            27.0 B 1.39 32 gr    27.0 B 1.39     66.4 B 1.03
//
// A line has room for three slots beside its meta and next words. The
// rule is no more arena per key than the chains took; of the rows that
// keep it, quadrupling reaches the same directories in half the growths,
// each a freeze. At 1 024 keys the arena is the sixteen initial 64-line
// directories. A growth copies every entry of its shard, so the series
// ends at 4c/3 entries copied for a last growth at count c, as relinking
// nodes did.
package kvstore

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"tinystm/internal/core"
	"tinystm/internal/mem"
)

const (
	hdrWords = mem.LineWords // shard header stride: shards land on distinct lines and stripes
	hdrDir   = 0
	hdrNBkts = 1

	lineWords = mem.LineWords // a bucket line: [meta, next, k0, v0, k1, v1, k2, v2]
	lineMeta  = 0
	lineNext  = 1
	lineSlot0 = 2 // slot i's key is at lineSlot0+2i, its value the word after
	slots     = (lineWords - lineSlot0) / 2
	fullMeta  = 1<<slots - 1

	// loadFactor is the mean keys per bucket past which a shard grows.
	loadFactor = 5
	// growFactor is how many times longer Grow makes a directory.
	growFactor = 4
	// maxBucketsPerShard caps directory growth so a pathological workload
	// cannot ask the arena for unbounded directories: one is at most 2^20
	// words.
	maxBucketsPerShard = 1 << 17
)

// keyWord is the offset in its line of slot i's key.
func keyWord(i int) uint64 { return lineSlot0 + 2*uint64(i) }

// freeSlot is the first slot meta leaves free; meta must not be fullMeta.
func freeSlot(meta uint64) int { return bits.TrailingZeros64(^meta) }

// Map is a transactional hash map from uint64 keys to uint64 values. The
// Go-side struct holds immutable placement data (base address, shard
// count) and the shards' key counters; the table itself lives in the
// Space, so any number of goroutines may use a Map concurrently, each
// through its own descriptor.
//
// All methods but Grow take the caller's transaction and perform plain
// transactional loads/stores: they compose freely into larger atomic
// blocks (multi-key batches, read-modify-write, cross-map transfers).
// They leave the key counters alone: only Store keeps them, so a table
// changed through Map alone does not grow.
type Map struct {
	base      uint64
	shards    uint64
	shardBits uint
	keys      []shardKeys
}

// shardKeys is one shard's live-key count, on a cache line of its own so
// that writers of different shards do not share one. It is moved after
// commit (Store.growTipped), so it may trail the table by the operations
// between their commit and their return, and it is exact once they have
// all returned. It reads negative when a delete's decrement lands before
// its insert's increment.
type shardKeys struct {
	//stm:allow-atomic a shard's key count, moved after commit and read as a growth trigger and size hint, never inside a transaction
	n atomic.Int64
	_ [56]byte
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
	m := &Map{shards: shards, shardBits: uint(bits.TrailingZeros64(shards)), keys: make([]shardKeys, shards)}
	tx := tm.NewTx()
	defer tx.Release()
	tm.Atomic(tx, func(tx *core.Tx) {
		m.base = tx.Alloc(int(shards) * hdrWords)
		for s := uint64(0); s < shards; s++ {
			dir := tx.Alloc(int(buckets * lineWords)) // zero: every line empty
			hdr := m.base + s*hdrWords
			tx.Store(hdr+hdrDir, dir)
			tx.Store(hdr+hdrNBkts, buckets)
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

// head returns the address of the head line of key's bucket, reading the
// shard's directory transactionally.
func (m *Map) head(tx *core.Tx, key uint64) uint64 {
	h := hash(key)
	hdr := m.base + (h&(m.shards-1))*hdrWords
	dir := tx.Load(hdr + hdrDir)
	nb := tx.Load(hdr + hdrNBkts)
	return dir + ((h>>m.shardBits)&(nb-1))*lineWords
}

// lookup walks key's bucket chain. When the key is present it returns the
// address of its value word, the line holding it and that line's meta.
// When it is absent val is 0, and line is where an insert goes: the first
// line of the chain with a free slot, with its meta, or the chain's last
// line (meta fullMeta) when every line is full.
func (m *Map) lookup(tx *core.Tx, key uint64) (val, line, meta uint64) {
	var room, roomMeta uint64
	for line = m.head(tx, key); ; {
		meta = tx.Load(line + lineMeta)
		for i := range slots {
			if meta&(1<<i) != 0 && tx.Load(line+keyWord(i)) == key {
				return line + keyWord(i) + 1, line, meta
			}
		}
		if room == 0 && meta != fullMeta {
			room, roomMeta = line, meta
		}
		next := tx.Load(line + lineNext)
		if next == 0 {
			if room != 0 {
				return 0, room, roomMeta
			}
			return 0, line, meta
		}
		line = next
	}
}

// Get returns the value stored under key within the caller's transaction.
func (m *Map) Get(tx *core.Tx, key uint64) (uint64, bool) {
	val, _, _ := m.lookup(tx, key)
	if val == 0 {
		return 0, false
	}
	return tx.Load(val), true
}

// Put inserts or updates key. It reports whether the key was inserted
// (false: an existing value was overwritten). It leaves the shard's key
// count alone (see Map).
func (m *Map) Put(tx *core.Tx, key, val uint64) bool { return m.put(tx, key, val, false) }

// put is Put taking kept, which says the transaction has freed no slot so
// far (see insert).
func (m *Map) put(tx *core.Tx, key, val uint64, kept bool) bool {
	v, line, meta := m.lookup(tx, key)
	if v != 0 {
		tx.Store(v, val)
		return false
	}
	m.insert(tx, line, meta, key, val, kept)
	return true
}

// insert stores key at line, where lookup stopped for it: in the line's
// first free slot, or in a new line appended after it when it is full.
// When kept says the transaction has freed no slot so far, a free slot
// was free when it began, so no committed state reads its key and value
// words until the meta bit is set: they are stored with
// core.Tx.StoreUnreached, which an irrevocable run (a bulk batch) does not
// undo-log, and only the meta word is.
func (m *Map) insert(tx *core.Tx, line, meta, key, val uint64, kept bool) {
	if meta == fullMeta {
		n := tx.Alloc(lineWords) // captured: its stores take no lock
		tx.Store(n+lineMeta, 1)
		tx.Store(n+keyWord(0), key)
		tx.Store(n+keyWord(0)+1, val)
		tx.Store(line+lineNext, n)
		return
	}
	i := freeSlot(meta)
	if kept {
		tx.StoreUnreached(line+keyWord(i), key)
		tx.StoreUnreached(line+keyWord(i)+1, val)
	} else {
		tx.Store(line+keyWord(i), key)
		tx.Store(line+keyWord(i)+1, val)
	}
	tx.Store(line+lineMeta, meta|1<<i)
}

// Delete removes key, reporting whether it was present. It leaves the
// shard's key count alone (see Map). It clears the key's meta bit; the
// line stays in its chain. It also stores the dead value word: an update
// of the key writes only that word, so without it an update that read the
// meta bit set and a delete that cleared it would share no lock, and could
// append their redo records to the log in the other order than they
// commit in.
func (m *Map) Delete(tx *core.Tx, key uint64) bool {
	val, line, meta := m.lookup(tx, key)
	if val == 0 {
		return false
	}
	i := (val - 1 - line - lineSlot0) / 2
	tx.Store(val, 0)
	tx.Store(line+lineMeta, meta&^(1<<i))
	return true
}

// CAS replaces key's value with new iff the key is present with value old.
func (m *Map) CAS(tx *core.Tx, key, old, new uint64) bool {
	val, _, _ := m.lookup(tx, key)
	if val == 0 || tx.Load(val) != old {
		return false
	}
	tx.Store(val, new)
	return true
}

// add increments key's value by delta (two's-complement, so negative
// deltas are ^uint64 wraps), inserting the key at delta when absent. It
// returns the new value and whether the key was inserted, and takes put's
// kept. This is the read-modify-write primitive batches need (a Get+Put
// pair in one batch could not see its own intermediate).
func (m *Map) add(tx *core.Tx, key, delta uint64, kept bool) (v uint64, inserted bool) {
	val, line, meta := m.lookup(tx, key)
	if val != 0 {
		v = tx.Load(val) + delta
		tx.Store(val, v)
		return v, false
	}
	m.insert(tx, line, meta, key, delta, kept)
	return delta, true
}

// Range calls fn for every key/value pair within the caller's
// transaction, stopping early when fn returns false. Iteration order is
// shard, then bucket, then line, then slot — stable only within one
// transaction. Composed with a snapshot-mode transaction this is the
// wait-free full-table scan; inside an update transaction it reads (and
// therefore validates) every word of the map.
func (m *Map) Range(tx *core.Tx, fn func(key, val uint64) bool) {
	for s := uint64(0); s < m.shards; s++ {
		hdr := m.base + s*hdrWords
		dir := tx.Load(hdr + hdrDir)
		nb := tx.Load(hdr + hdrNBkts)
		for line := dir; line < dir+nb*lineWords; line += lineWords {
			for l := line; l != 0; l = tx.Load(l + lineNext) {
				meta := tx.Load(l + lineMeta)
				for i := range slots {
					if meta&(1<<i) != 0 && !fn(tx.Load(l+keyWord(i)), tx.Load(l+keyWord(i)+1)) {
						return
					}
				}
			}
		}
	}
}

// count returns shard s's live keys as its counter reads now, 0 while a
// delete's decrement runs ahead of its insert's increment.
func (m *Map) count(s uint64) uint64 { return uint64(max(m.keys[s].n.Load(), 0)) }

// addKeys adds n (two's complement) to shard s's live keys.
func (m *Map) addKeys(s, n uint64) { m.keys[s].n.Add(int64(n)) }

// needsGrow reports whether a shard of count keys over buckets lines is
// past the load factor and its directory can still grow.
func needsGrow(count, buckets uint64) bool {
	return buckets < maxBucketsPerShard && count > buckets*loadFactor
}

// grown is the length of the directory a growth of an nb-line one makes.
func grown(nb uint64) uint64 { return min(nb*growFactor, maxBucketsPerShard) }

// Grow makes shard s's bucket directory growFactor times longer (up to
// maxBucketsPerShard) and rehashes its entries as a plain rewrite of the
// space under tm's freeze barrier; the soundness argument is above
// core.TM.Quiesce. It allocates the new directory first, while
// transactions still run: touching a fresh directory's pages costs about
// what copying the entries into them does (~3 µs a 4 KiB page on a
// 2-vCPU VM, against ~4 µs for the ~80 entries it receives). With
// every transaction quiescent it then re-checks the shard's count against
// the load factor, copies every entry into the new directory, swaps the
// header and frees the old directory at once. It reports false, changing
// nothing, when the shard no longer needs growing (an earlier growth got
// there first) or the space cannot fit the new directory: growth is
// best-effort, and the shard keeps serving with longer chains. The copy
// allocates nothing beyond the directory, so it cannot fail half done.
// Every growth of the store is one of these, a bulk batch's included: the
// batch's irrevocable run only notes the shards it tipped.
func (m *Map) Grow(tm *core.TM, s uint64) (grew bool) {
	sp := tm.Space()
	// Only a frozen growth writes the bucket count, so this plain read is
	// at worst stale, and rehash then finds the directory the wrong size.
	// The key count read beside it is a hint too (rehash re-checks both):
	// when two batches tipped the same shard, the second's Grow finds it
	// grown here and costs neither a directory nor a freeze.
	nb := sp.Load(mem.Addr(m.base + s*hdrWords + hdrNBkts))
	if !needsGrow(m.count(s), nb) {
		return false
	}
	nb2 := grown(nb)
	dir2 := sp.Alloc(int(nb2 * lineWords))
	if dir2 == mem.Nil {
		return false
	}
	tm.Quiesce(func() { grew = m.rehash(sp, s, dir2, nb2) })
	if !grew {
		sp.Free(dir2, int(nb2*lineWords)) // never reachable
	}
	return grew
}

// rehash is Grow's rewrite of shard s in sp, run behind Quiesce. dir2 is
// the new directory, nb2 lines that Grow allocated, and faulted in, before
// the freeze; rehash reports false, leaving dir2 to Grow, when the shard
// needs no growth or dir2 is not the length a growth makes now.
//
// The keys of old bucket b land only in the new buckets b + j·nb (the
// bucket index is the hash's low bits), so each old chain is copied on
// its own into at most growFactor new ones. An old overflow line is
// drained — its entries held in registers — before any of them is
// written, and then serves as the next overflow line a new chain needs:
// after m old lines the copy has at most 3m entries, which need at most
// m-1 overflow lines however they split, and m-1 old overflow lines are
// drained. The lines left over go back to the space.
func (m *Map) rehash(sp *mem.Space, s uint64, dir2 mem.Addr, nb2 uint64) bool {
	hdr := mem.Addr(m.base + s*hdrWords)
	nb := sp.Load(hdr + hdrNBkts)
	if nb2 != grown(nb) || !needsGrow(m.count(s), nb) {
		return false
	}
	dir := mem.Addr(sp.Load(hdr + hdrDir))
	nbBits := uint(bits.TrailingZeros64(nb))
	// tails[j] is the last line of new bucket b + j·nb, and metas[j] its
	// occupancy, stored when the line is full or the old bucket done.
	var tails [growFactor]mem.Addr
	var metas [growFactor]uint64
	split := nb2 / nb
	for b := range nb {
		for j := range split {
			tails[j], metas[j] = dir2+mem.Addr((b+j*nb)*lineWords), 0
		}
		var spare mem.Addr // drained overflow lines, linked through their next words
		head := dir + mem.Addr(b*lineWords)
		for line := head; line != mem.Nil; {
			meta := sp.Load(line + lineMeta)
			next := mem.Addr(sp.Load(line + lineNext))
			var keys, vals [slots]uint64
			n := 0
			for i := range slots {
				if meta&(1<<i) != 0 {
					keys[n], vals[n] = sp.Load(line+mem.Addr(keyWord(i))), sp.Load(line+mem.Addr(keyWord(i))+1)
					n++
				}
			}
			if line != head {
				sp.Store(line+lineNext, uint64(spare))
				spare = line
			}
			for e := range n {
				j := ((hash(keys[e]) >> m.shardBits) & (nb2 - 1)) >> nbBits
				if metas[j] == fullMeta {
					o := spare
					if o == mem.Nil {
						panic("kvstore: rehash found no drained line to extend a chain with")
					}
					spare = mem.Addr(sp.Load(o + lineNext))
					sp.Store(o+lineNext, 0)
					sp.Store(tails[j]+lineMeta, fullMeta)
					sp.Store(tails[j]+lineNext, uint64(o))
					tails[j], metas[j] = o, 0
				}
				i := freeSlot(metas[j])
				sp.Store(tails[j]+mem.Addr(keyWord(i)), keys[e])
				sp.Store(tails[j]+mem.Addr(keyWord(i))+1, vals[e])
				metas[j] |= 1 << i
			}
			line = next
		}
		for j := range split {
			if metas[j] != 0 {
				sp.Store(tails[j]+lineMeta, metas[j])
			}
		}
		for spare != mem.Nil {
			next := mem.Addr(sp.Load(spare + lineNext))
			sp.Free(spare, lineWords)
			spare = next
		}
	}
	sp.Store(hdr+hdrDir, uint64(dir2))
	sp.Store(hdr+hdrNBkts, nb2)
	sp.Free(dir, int(nb*lineWords))
	return true
}
