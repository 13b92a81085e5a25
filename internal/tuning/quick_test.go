package tuning

import (
	"math/bits"
	"testing"
	"testing/quick"

	"tinystm/internal/core"
)

// Property: whatever throughput feedback the tuner receives, every
// configuration it proposes stays inside its bounds, keeps all fields
// powers of two (locks, hier), and keeps h <= locks.
func TestQuickTunerStaysInBounds(t *testing.T) {
	b := Bounds{
		MinLocks: 1 << 6, MaxLocks: 1 << 14,
		MinShifts: 0, MaxShifts: 5,
		MinHier: 1, MaxHier: 64,
	}
	f := func(feedback []uint16, seed uint64) bool {
		tr := New(Config{Initial: p(8, 1, 2), Bounds: b, Seed: seed})
		cur := tr.Current()
		for _, fb := range feedback {
			cur, _, _ = tr.Step(float64(fb) + 1)
			if cur.Locks < b.MinLocks || cur.Locks > b.MaxLocks {
				return false
			}
			if bits.OnesCount64(cur.Locks) != 1 || bits.OnesCount64(cur.Hier) != 1 {
				return false
			}
			if cur.Shifts > b.MaxShifts {
				return false
			}
			if cur.Hier > b.MaxHier || cur.Hier > cur.Locks {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the collected Step returns always chain (the next of step i
// is the configuration measured at step i+1) and the memory holds the
// throughput the tuner was last fed there.
func TestQuickTraceChains(t *testing.T) {
	f := func(feedback []uint16, seed uint64) bool {
		tr := New(Config{Initial: p(10, 0, 1), Seed: seed})
		path := drive(tr, len(feedback), func(i int, _ core.Params) float64 { return float64(feedback[i]) + 1 })
		for i, s := range path {
			if i+1 < len(path) && s.next != path[i+1].at {
				return false
			}
		}
		return len(path) == 0 || tr.memory[path[len(path)-1].at] == path[len(path)-1].tp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the best configuration's recorded throughput is the maximum
// of the most recent measurement per configuration.
func TestQuickBestIsMaxOfMemory(t *testing.T) {
	f := func(feedback []uint16, seed uint64) bool {
		if len(feedback) == 0 {
			return true
		}
		tr := New(Config{Initial: p(10, 0, 1), Seed: seed})
		latest := map[core.Params]float64{}
		cur := tr.Current()
		for _, fb := range feedback {
			tp := float64(fb) + 1
			latest[cur] = tp
			cur, _, _ = tr.Step(tp)
		}
		_, bestTp := tr.Best()
		max := 0.0
		for _, tp := range latest {
			if tp > max {
				max = tp
			}
		}
		return bestTp == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
