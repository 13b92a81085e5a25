package kvclient

import (
	"fmt"

	"tinystm/internal/kvproto"
	"tinystm/internal/rng"
)

// Target is what the service mix drives: the four request kinds the mix is
// made of, over whichever wire surface. *Client (binary) and *HTTP
// (HTTP+JSON) both satisfy it.
type Target interface {
	Get(key uint64) (val uint64, found bool, err error)
	Put(key, val uint64) (inserted bool, err error)
	CAS(key, old, new uint64) (ok bool, err error)
	Batch(ops []kvproto.BatchOp) ([]kvproto.BatchResult, error)
}

// Mix describes service-shaped KV traffic: a Zipf-skewed key popularity
// over a bounded keyspace and a read/CAS/batch/write operation mix. Build
// one with NewMix; Do is the only place the mix is drawn — the load
// generator (cmd/stmkv-loadgen) sends its traffic through it.
type Mix struct {
	// Keys is the keyspace size; operations draw keys in [0, Keys).
	// Default 4096.
	Keys uint64
	// Theta is the Zipfian skew in [0, 1): 0 uniform, 0.99 heavily
	// skewed (YCSB's default).
	Theta float64
	// ReadPct is the percentage of single-key Gets. The remainder splits
	// between CAS (CASPct), atomic batches (BatchPct) and plain Puts.
	ReadPct int
	// CASPct is the percentage of compare-and-swap read-modify-writes.
	CASPct int
	// BatchPct is the percentage of multi-key atomic batches (BatchSize
	// Add ops on Zipf-drawn keys).
	BatchPct int
	// BatchSize is the number of keys per batch (default 4).
	BatchSize int

	zipf *rng.Zipf
}

// NewMix validates x, fills its defaults and computes the Zipf tables
// once. The result is immutable and shared by any number of workers: all
// per-draw state lives in the generator passed to Do, so a phase change
// is one atomic pointer swap.
func NewMix(x Mix) (*Mix, error) {
	if x.Keys == 0 {
		x.Keys = 1 << 12
	}
	if x.BatchSize <= 0 {
		x.BatchSize = 4
	}
	if x.Theta < 0 || x.Theta >= 1 {
		return nil, fmt.Errorf("kvclient: Mix.Theta (%v) must be in [0, 1)", x.Theta)
	}
	if x.ReadPct < 0 || x.CASPct < 0 || x.BatchPct < 0 || x.ReadPct+x.CASPct+x.BatchPct > 100 {
		return nil, fmt.Errorf("kvclient: Mix percentages (%d read, %d cas, %d batch) must be >= 0 and sum <= 100",
			x.ReadPct, x.CASPct, x.BatchPct)
	}
	x.zipf = rng.NewZipf(x.Keys, x.Theta)
	return &x, nil
}

// Do draws one operation and performs it against t: a Get, an optimistic
// read-modify-write (Get, then one CAS — or a seeding Put when the key is
// absent; the workload measures contention, not client persistence), an
// atomic batch of Adds, or a Put. Any failed request ends the operation
// with its error: in particular a Get the server refused is never taken
// for "absent", so a shed read cannot turn into a write.
func (m *Mix) Do(t Target, r *rng.Rand) error {
	key := m.zipf.Next(r)
	switch p := r.Intn(100); {
	case p < m.ReadPct:
		_, _, err := t.Get(key)
		return err
	case p < m.ReadPct+m.CASPct:
		cur, found, err := t.Get(key)
		if err != nil {
			return err
		}
		if !found {
			_, err = t.Put(key, 1)
			return err
		}
		_, err = t.CAS(key, cur, cur+1)
		return err
	case p < m.ReadPct+m.CASPct+m.BatchPct:
		ops := make([]kvproto.BatchOp, m.BatchSize)
		for i := range ops {
			ops[i] = kvproto.BatchOp{Op: kvproto.OpAdd, Key: m.zipf.Next(r), Val: 1}
		}
		_, err := t.Batch(ops)
		return err
	default:
		_, err := t.Put(key, r.Uint64()%100000)
		return err
	}
}
