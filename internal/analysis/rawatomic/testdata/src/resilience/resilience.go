// Package resilience carries the name of the client-side resilience
// layer: deadlines, retry budgets and breakers guard network state, not
// transactional memory, so — like the STM runtime layers — nothing here
// is flagged.
package resilience

import (
	"sync"
	"sync/atomic"
)

type budget struct {
	mu     sync.Mutex
	tokens float64
	denied atomic.Uint64
}

func (b *budget) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		b.denied.Add(1)
		return false
	}
	b.tokens--
	return true
}
