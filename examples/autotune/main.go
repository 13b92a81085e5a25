// Autotune: the paper's dynamic tuning running *inside* the system.
//
// A linked-list workload runs continuously while tuning.Runtime — a
// background controller goroutine — meters live commit throughput from the
// TM's commit counters, feeds the hill-climbing tuner one
// measurement per period (max of 3 samples, Section 4.3), and reconfigures
// the live TM on its own. The application only starts the runtime; no
// manual measurement loop remains. Halfway through, the workload flips
// phase (update rate up, working set down) and the controller re-adapts.
//
// The program prints one line per tuning period — a miniature Figure 11
// with a regime change in the middle. Run with:
//
//	go run ./examples/autotune
package main

import (
	"fmt"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/harness"
	"tinystm/internal/mem"
	"tinystm/internal/tuning"
)

func main() {
	const (
		threads = 4
		periods = 16
		period  = 100 * time.Millisecond
	)
	// Start from a deliberately bad configuration (2^8 locks, §4.3).
	start := core.Params{Locks: 1 << 8, Shifts: 0, Hier: 1}

	space := mem.NewSpace(1 << 20)
	tm := core.MustNew(core.Config{
		Space: space, Locks: start.Locks, Shifts: start.Shifts, Hier: start.Hier,
	})

	// Two workload phases over one shared list: a read-mostly mix and a
	// hot update-heavy mix with a quarter of the working set.
	calm := harness.IntsetParams{Kind: harness.KindList, InitialSize: 1024, UpdatePct: 20}
	hot := calm
	hot.UpdatePct = 80
	hot.Range = 512
	set := harness.BuildIntset[*core.Tx](tm, calm, 7)
	phased := harness.IntsetPhases[*core.Tx](tm, set, calm, hot)
	workers := harness.StartWorkers[*core.Tx](tm, threads, 7, phased.Op())
	defer workers.Stop()

	// The runtime is the whole tuning loop: start it and watch the trace.
	trace := make(chan tuning.Event, periods+8)
	rt := tuning.NewRuntime(tm, tuning.RuntimeConfig{
		Tuner:  tuning.Config{Initial: start, Seed: 7},
		Period: period,
		Trace:  trace,
	})
	if err := rt.Start(); err != nil {
		panic(err)
	}
	for i := 0; i < periods; i++ {
		fmt.Println(<-trace)
		if i+1 == periods/2 {
			phased.SetPhase(1)
			fmt.Println("--- workload phase shift: 80% updates, half range ---")
		}
	}
	rt.Stop()

	best, tp, _ := rt.Best() // the workers keep every period busy
	fmt.Printf("\nbest configuration: %v at %.0f txs/s (started at %v)\n", best, tp, start)
}
