// Package reclaim implements quiescence-based memory reclamation for the
// STM runtimes.
//
// The paper's TinySTM frees memory "at commit time", but an unmanaged
// word-based STM cannot return a block to the allocator the instant the
// freeing transaction commits: doomed concurrent transactions that started
// before the free may still hold the block's address and read it until
// they validate and abort. The C implementation solves this with an
// epoch-based garbage collector; this package is the Go equivalent.
//
// Freed blocks are *retired* with the freeing transaction's commit
// timestamp. A retired block becomes reusable once every transaction that
// started before that timestamp has finished: transactions that started
// later observe a consistent snapshot in which the block is unreachable.
// The STM supplies the minimum start time over active transactions; the
// pool hands back every block older than it.
package reclaim

import "sync"

// Block describes one retired allocation.
type Block struct {
	Addr  uint64
	Words int
	ts    uint64
}

// Pool collects retired blocks until they are provably unreachable.
// All methods are safe for concurrent use.
type Pool struct {
	mu     sync.Mutex
	blocks []Block
}

// Retire adds a block freed by a transaction that committed at timestamp
// ts. The block's memory must remain intact until the pool returns it
// from Drain.
func (p *Pool) Retire(addr uint64, words int, ts uint64) {
	p.mu.Lock()
	p.blocks = append(p.blocks, Block{Addr: addr, Words: words, ts: ts})
	p.mu.Unlock()
}

// Len returns the number of blocks awaiting reclamation.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.blocks)
}

// Drain removes and returns every block retired at a timestamp <=
// minActiveStart (i.e. no active transaction's snapshot can reach it).
// The caller returns the blocks to its allocator.
func (p *Pool) Drain(minActiveStart uint64) []Block {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Block
	kept := p.blocks[:0]
	for _, b := range p.blocks {
		if b.ts <= minActiveStart {
			out = append(out, b)
		} else {
			kept = append(kept, b)
		}
	}
	p.blocks = kept
	return out
}

// DrainAll removes and returns every block unconditionally. Call only at a
// global quiescence point (the STM's freeze barrier): clock roll-over,
// whose rewind makes the old epoch's timestamps meaningless. A
// reconfiguration keeps the clock, so its limbo drains as usual.
func (p *Pool) DrainAll() []Block {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.blocks
	p.blocks = nil
	return out
}
