package experiments

import (
	"fmt"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/harness"
	"tinystm/internal/tuning"
)

// TuneConfig parameterizes a dynamic-tuning run (Figures 10, 11, 12).
type TuneConfig struct {
	Kind      harness.Kind
	Size      int
	UpdatePct int
	Threads   int
	// Periods is the number of tuning configurations to evaluate.
	Periods int
	// Period is one measurement interval; the paper uses ~1 second and
	// takes the maximum of SamplesPerConfig=3 intervals per
	// configuration.
	Period           time.Duration
	SamplesPerConfig int
	// Start is the initial configuration; the evaluation starts at
	// (2^8, 0, 1) ("for testing purposes ... a small number of locks").
	Start  core.Params
	Bounds tuning.Bounds
	Seed   uint64
}

// DefaultTuneConfig mirrors Section 4.3's setup at the given scale.
func DefaultTuneConfig(sc Scale, kind harness.Kind) TuneConfig {
	return TuneConfig{
		Kind: kind, Size: 4096, UpdatePct: 20,
		Threads: sc.Threads[len(sc.Threads)-1],
		Periods: 40, Period: sc.Duration, SamplesPerConfig: 3,
		Start:  core.Params{Locks: 1 << 8, Shifts: 0, Hier: 1},
		Bounds: tuning.DefaultBounds(),
		Seed:   sc.Seed,
	}
}

// ValidationSample records, for one tuning configuration, the rate of
// read-set locks individually validated versus skipped via the
// hierarchical fast path (the two series of Figure 12).
type ValidationSample struct {
	Config          core.Params
	Throughput      float64
	ProcessedPerSec float64
	SkippedPerSec   float64
}

// TuneResult is the outcome of a tuning run.
type TuneResult struct {
	Trace      []tuning.TraceEntry
	Validation []ValidationSample
	Final      core.Params
	Best       core.Params
	BestTp     float64
}

// TraceTable renders the Figure 10/11 data: the configuration path and the
// throughput measured at each step, with the paper's move notation.
func (r TuneResult) TraceTable(title string) harness.Table {
	tbl := harness.Table{Title: title,
		Headers: []string{"cfg#", "locks", "shifts", "h", "throughput (10^3/s)", "move"}}
	for _, e := range r.Trace {
		tbl.AddRow(e.Index, fmt.Sprintf("2^%d", log2(e.Params.Locks)), e.Params.Shifts,
			e.Params.Hier, fmt.Sprintf("%.1f", e.Throughput/1000), e.Move.Signed(e.Reversed))
	}
	return tbl
}

// ValidationTable renders the Figure 12 data.
func (r TuneResult) ValidationTable() harness.Table {
	tbl := harness.Table{
		Title: "Figure 12: locks processed or skipped during validation (10^6/s)",
		Headers: []string{"cfg#", "locks", "shifts", "h",
			"processed (10^6/s)", "skipped (10^6/s)"},
	}
	for i, v := range r.Validation {
		tbl.AddRow(i, fmt.Sprintf("2^%d", log2(v.Config.Locks)), v.Config.Shifts,
			v.Config.Hier,
			fmt.Sprintf("%.2f", v.ProcessedPerSec/1e6),
			fmt.Sprintf("%.2f", v.SkippedPerSec/1e6))
	}
	return tbl
}

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// RunTuning executes the auto-tuning experiment: workers run the intset
// workload continuously while the tuner reconfigures the TM between
// measurement periods (Figures 10 and 11; the validation counters feed
// Figure 12).
func RunTuning(sc Scale, tc TuneConfig) TuneResult {
	tm := newCoreTM(sc, core.WriteBack, tc.Start)
	ip := harness.IntsetParams{Kind: tc.Kind, InitialSize: tc.Size, UpdatePct: tc.UpdatePct}
	set := harness.BuildIntset[*core.Tx](tm, ip, tc.Seed)
	op := harness.IntsetOp[*core.Tx](tm, set, ip)

	workers := harness.StartWorkers[*core.Tx](tm, tc.Threads, tc.Seed, op)
	defer workers.Stop()

	tuner := tuning.New(tuning.Config{
		Initial: tc.Start, Bounds: tc.Bounds, Seed: tc.Seed,
	})
	meter := harness.NewMeter(tm.Stats)

	var result TuneResult
	samples := tc.SamplesPerConfig
	if samples <= 0 {
		samples = 3
	}
	for i := 0; i < tc.Periods; i++ {
		cur := tuner.Current()
		// "The throughput is measured three times in every configuration
		// and the maximum of the three measurements is used" (§4.3).
		maxTp := 0.0
		var processed, skipped, elapsed float64
		for s := 0; s < samples; s++ {
			t0 := time.Now()
			time.Sleep(tc.Period)
			secs := time.Since(t0).Seconds()
			tp, delta := meter.Sample()
			if tp > maxTp {
				maxTp = tp
			}
			processed += float64(delta.LocksValidated)
			skipped += float64(delta.LocksSkipped)
			elapsed += secs
		}
		result.Validation = append(result.Validation, ValidationSample{
			Config: cur, Throughput: maxTp,
			ProcessedPerSec: processed / elapsed,
			SkippedPerSec:   skipped / elapsed,
		})
		next, _ := tuner.Step(maxTp)
		if next != cur {
			if err := tm.Reconfigure(next); err != nil {
				panic(fmt.Sprintf("experiments: reconfigure %v: %v", next, err))
			}
		}
	}
	result.Trace = tuner.Trace()
	result.Final = tuner.Current()
	result.Best, result.BestTp = tuner.Best()
	return result
}

// Figure10 runs the red-black tree auto-tuning experiment of Section 4.3.
func Figure10(sc Scale) TuneResult {
	return RunTuning(sc, DefaultTuneConfig(sc, harness.KindRBTree))
}

// Figure11 runs the linked-list auto-tuning experiment.
func Figure11(sc Scale) TuneResult {
	return RunTuning(sc, DefaultTuneConfig(sc, harness.KindList))
}

// Figure12 reuses the linked-list tuning run; its Validation samples are
// the figure's two series.
func Figure12(sc Scale) TuneResult {
	return Figure11(sc)
}
