// Command stmbench runs every figure of the paper's evaluation, plus the
// sweeps this repository adds on top, from one flag block and one -fig
// dispatch table:
//
//	2 3 4 4r 5   integer-set throughput and abort rates, TinySTM-WB/WT vs TL2
//	6 7 8 9      (#locks x #shifts x h) sweeps: rbtree/list, Vacation, improvement curves
//	10 11 12     dynamic tuning from (2^8,0,1) on tuning.Runtime: rbtree, list, validation counters
//	snapshot     MVCC scans: classic read-only vs. snapshot transactions under writers
//	custom       one workload (-b -size -update) across all three systems
//	autotune     the tuning runtime against a phase-shifting workload vs. static baselines
//
// Examples:
//
//	stmbench -fig 3 -quick -csv                    # fast smoke run, CSV output
//	stmbench -fig 6 -b rbtree -locks 8,12,16       # Figure 6 on a chosen grid
//	stmbench -fig 7 -r 16384 -q 90 -u 80 -n 4      # Figure 7, Vacation parameters
//	stmbench -fig 11 -periods 40 -duration 1s      # Figure 11, 40 configurations
//	stmbench -b list -size 1024 -update 20         # one workload (-fig custom)
//	stmbench -fig autotune -b list                 # autotuned vs. static comparison
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/experiments"
	"tinystm/internal/harness"
	"tinystm/internal/tuning"
	"tinystm/internal/vacation"
)

// defaultGeometry matches the fixed configuration the non-sweep figures
// use (2^20 locks, no shift, hierarchy disabled).
var defaultGeometry = core.Params{Locks: 1 << 20, Shifts: 0, Hier: 1}

// figures is the -fig dispatch table, in the order the usage string lists
// the names.
var figures = []struct {
	name string
	run  func(*options)
}{
	{"2", fig2}, {"3", fig3}, {"4", fig4}, {"4r", fig4r}, {"5", fig5},
	{"6", fig6}, {"7", fig7}, {"8", fig8}, {"9", fig9},
	{"10", fig10}, {"11", fig11}, {"12", fig12},
	{"snapshot", figSnapshot},
	{"custom", figCustom}, {"autotune", figAutotune},
}

func figureNames() string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return strings.Join(names, " ")
}

// options is the one flag block, plus what main derives from it once.
type options struct {
	fig, bench, threads            string
	size, update                   int
	duration, warmup               time.Duration
	seed                           uint64
	quick, csv                     bool
	yield, repeats, periods, shift int
	locks, shifts, hiers           string
	vacation                       vacation.Params

	sc      experiments.Scale
	kind    harness.Kind
	sizeSet bool // -size given explicitly (snapshot keeps its own default otherwise)
}

func declare(fs *flag.FlagSet) *options {
	o := new(options)
	fs.StringVar(&o.fig, "fig", "custom", "figure to run: "+figureNames())
	fs.StringVar(&o.bench, "b", "rbtree", "structure (list, rbtree) for -fig 6, 8, custom, autotune")
	fs.IntVar(&o.size, "size", 4096, "initial elements for -fig 10-12, snapshot, custom, autotune")
	fs.IntVar(&o.update, "update", 20, "update percentage for -fig 10-12, custom, autotune")
	fs.StringVar(&o.threads, "threads", "1,2,4,6,8", "comma-separated thread counts (sweeps and tuning runs use the largest)")
	fs.DurationVar(&o.duration, "duration", time.Second, "measurement window per point; one tuning sample for -fig 10-12, autotune")
	fs.DurationVar(&o.warmup, "warmup", 200*time.Millisecond, "warm-up before measuring")
	fs.Uint64Var(&o.seed, "seed", 42, "workload seed")
	fs.BoolVar(&o.quick, "quick", false, "milliseconds-scale smoke run")
	fs.IntVar(&o.yield, "yield", 0, "yield after every N loads (multi-core interleaving simulation; 0 = off)")
	fs.IntVar(&o.repeats, "repeats", 1, "measurements per point (maximum kept)")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.IntVar(&o.periods, "periods", 30, "tuning periods (configurations) for -fig 10-12, autotune")
	fs.IntVar(&o.shift, "shift", 0, "flip the workload phase every N tuning periods for -fig autotune (0 = half the run)")
	fs.StringVar(&o.locks, "locks", "", "lock-array exponents for -fig 6-9 (default 8,10,...,24; -fig 7: 16,18,...,24)")
	fs.StringVar(&o.shifts, "shifts", "", "shift values for -fig 6-9 (default 0,1,...,6; -fig 7: 0,2,...,8)")
	fs.StringVar(&o.hiers, "hiers", "4,16,64,256", "hierarchical array sizes for -fig 9")
	fs.IntVar(&o.vacation.Relations, "r", 1<<12, "-fig 7: records per Vacation relation")
	fs.IntVar(&o.vacation.QueryPct, "q", 90, "-fig 7: percent of relations queried")
	fs.IntVar(&o.vacation.UserPct, "u", 80, "-fig 7: percent of user (reservation) transactions")
	fs.IntVar(&o.vacation.QueriesPerTx, "n", 4, "-fig 7: queries per transaction")
	return o
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("stmbench: ")
	o := declare(flag.CommandLine)
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { o.sizeSet = o.sizeSet || f.Name == "size" })

	o.sc = o.scale()
	o.kind = must(parseKind(o.bench))

	for _, f := range figures {
		if f.name == o.fig {
			f.run(o)
			return
		}
	}
	log.Fatalf("unknown -fig %q (%s)", o.fig, figureNames())
}

// must unwraps a flag-parsing result, ending the process with the error
// (through log.Fatal, so under the command's log prefix) when there is one.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// parseInts parses a comma-separated integer list ("1,2,4,6,8").
func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %w", p, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", s)
	}
	return out, nil
}

// parseUnsigned parses a comma-separated list of non-negative integers.
func parseUnsigned[U uint | uint64](s string) ([]U, error) {
	ints, err := parseInts(s)
	if err != nil {
		return nil, err
	}
	out := make([]U, len(ints))
	for i, v := range ints {
		if v < 0 {
			return nil, fmt.Errorf("negative value %d", v)
		}
		out[i] = U(v)
	}
	return out, nil
}

// parseKind maps a -b name to a harness kind.
func parseKind(s string) (harness.Kind, error) {
	switch strings.ToLower(s) {
	case "list", "linkedlist", "ll":
		return harness.KindList, nil
	case "rbtree", "tree", "rb":
		return harness.KindRBTree, nil
	default:
		return 0, fmt.Errorf("unknown benchmark %q (list, rbtree)", s)
	}
}

// scale assembles the measurement scale from -duration, -warmup, -threads,
// -seed, -yield and -repeats; -quick keeps QuickScale's timing and seed.
func (o *options) scale() experiments.Scale {
	sc := experiments.QuickScale()
	if !o.quick {
		sc = experiments.PaperScale()
		sc.Duration, sc.Warmup, sc.Seed = o.duration, o.warmup, o.seed
	}
	sc.Threads = must(parseInts(o.threads))
	sc.YieldEvery = o.yield
	sc.Repeats = o.repeats
	return sc
}

func (o *options) emit(tbl harness.Table) {
	if o.csv {
		tbl.RenderCSV(os.Stdout)
	} else {
		tbl.Render(os.Stdout)
	}
	fmt.Println()
}

// intset is the -b/-size/-update workload.
func (o *options) intset() harness.IntsetParams {
	return harness.IntsetParams{Kind: o.kind, InitialSize: o.size, UpdatePct: o.update}
}

// grid is the (#locks x #shifts) sweep grid: -locks/-shifts, or the
// figure's own default when unset. -quick keeps the first two of each.
func (o *options) grid(locks, shifts string) ([]int, []uint) {
	if o.locks != "" {
		locks = o.locks
	}
	if o.shifts != "" {
		shifts = o.shifts
	}
	les, shs := must(parseInts(locks)), must(parseUnsigned[uint](shifts))
	if o.quick {
		les, shs = les[:min(len(les), 2)], shs[:min(len(shs), 2)]
	}
	return les, shs
}

const (
	intsetLocks  = "8,10,12,14,16,18,20,22,24"
	intsetShifts = "0,1,2,3,4,5,6"
)

func fig2(o *options) {
	for _, c := range []struct{ size, update int }{{256, 20}, {4096, 20}, {4096, 60}} {
		o.emit(experiments.Figure2(o.sc, c.size, c.update).ToTable("throughput"))
	}
}

func fig3(o *options) {
	for _, c := range []struct{ size, update int }{{256, 0}, {256, 20}, {4096, 20}} {
		o.emit(experiments.Figure3(o.sc, c.size, c.update).ToTable("throughput"))
	}
}

func fig4(o *options) {
	o.emit(experiments.Figure4Aborts(o.sc, harness.KindRBTree, 4096, 20).ToTable("aborts"))
	o.emit(experiments.Figure4Aborts(o.sc, harness.KindList, 256, 20).ToTable("aborts"))
}

func fig4r(o *options) {
	o.emit(experiments.Figure4Overwrite(o.sc, 256, 5).ToTable("throughput"))
}

func fig5(o *options) {
	sizes := []int{256, 512, 1024, 2048, 4096}
	updates := []int{0, 20, 40, 60, 80, 100}
	o.emit(experiments.Figure5(o.sc, harness.KindRBTree, sizes, updates).ToTable())
	o.emit(experiments.Figure5(o.sc, harness.KindList, sizes, updates).ToTable())
}

func (o *options) emitSurface(r experiments.SweepSurface) {
	o.emit(r.ToTable())
	best, tp := r.Best()
	fmt.Printf("best static configuration: %v at %.1f x10^3 txs/s\n", best, tp/1000)
}

func fig6(o *options) {
	les, shs := o.grid(intsetLocks, intsetShifts)
	o.emitSurface(experiments.Figure6(o.sc, o.kind, les, shs))
}

func fig7(o *options) {
	les, shs := o.grid("16,18,20,22,24", "0,2,4,6,8")
	sc, vp := o.sc, o.vacation
	if o.quick {
		vp.Relations = 256
		sc.Duration = 40 * time.Millisecond
	}
	o.emitSurface(experiments.Figure7(sc, vp, les, shs))
}

func fig8(o *options) {
	les, shs := o.grid(intsetLocks, intsetShifts)
	o.emitSurface(experiments.Figure8(o.sc, o.kind, les, shs))
}

func fig9(o *options) {
	les, shs := o.grid(intsetLocks, intsetShifts)
	maxExp := les[len(les)-1]
	o.emit(experiments.Figure9Locks(o.sc, les).ToTable())
	o.emit(experiments.Figure9Shifts(o.sc, maxExp, shs).ToTable())
	o.emit(experiments.Figure9Hier(o.sc, maxExp, must(parseUnsigned[uint64](o.hiers))).ToTable())
}

// tuningFigure runs Section 4.3's experiment — the tuning runtime over one
// steady workload from the paper's deliberately bad (2^8, 0, 1), maximum
// of three samples per configuration — which Figures 10, 11 and 12 all
// draw from.
func (o *options) tuningFigure(kind harness.Kind) experiments.AutotuneResult {
	ac := experiments.DefaultAutotuneConfig(o.sc, kind)
	ac.Phases = []harness.IntsetParams{{Kind: kind, InitialSize: o.size, UpdatePct: o.update}}
	ac.ShiftEvery, ac.Statics = 0, nil
	ac.Periods = o.periods
	return experiments.AutotuneSweep(o.sc, ac)
}

func (o *options) emitPath(fig int, kind harness.Kind) {
	r := o.tuningFigure(kind)
	o.emit(r.TraceTable(fmt.Sprintf("Figure %d: auto-tuning, %v, size=%d, threads=%d",
		fig, kind, o.size, o.sc.Threads[len(o.sc.Threads)-1])))
	fmt.Printf("final configuration: %v\n", r.Final)
	fmt.Printf("best configuration:  %v at %.1f x10^3 txs/s\n", r.Best, r.BestTp/1000)
}

func fig10(o *options) { o.emitPath(10, harness.KindRBTree) }
func fig11(o *options) { o.emitPath(11, harness.KindList) }
func fig12(o *options) { o.emit(o.tuningFigure(harness.KindList).ValidationTable()) }

// figSnapshot: read-only full-table scans under write pressure, the MVCC
// sidecar off (classic RO transactions that abort under writers) vs. on
// across version budgets. -size overrides the table, -threads the writer
// sweep.
func figSnapshot(o *options) {
	cfg := experiments.DefaultSnapshotConfig(o.sc)
	if o.sizeSet {
		cfg.Keys = uint64(o.size)
	}
	fmt.Printf("snapshot sweep: %d keys, %d scanners, theta %.2f, %v per point, budgets %v\n",
		cfg.Keys, cfg.Scanners, cfg.Theta, cfg.Duration, cfg.Budgets)
	o.emit(experiments.SnapshotSweep(o.sc, cfg).ToTable())
}

func figCustom(o *options) {
	tbl := harness.Table{
		Title:   fmt.Sprintf("custom: %v, %d elements, %d%% updates", o.kind, o.size, o.update),
		Headers: []string{"threads", "system", "throughput (10^3/s)", "aborts (10^3/s)"},
	}
	for _, th := range o.sc.Threads {
		for _, sys := range experiments.AllSystems {
			p := experiments.RunIntsetPoint(o.sc, sys, defaultGeometry, o.intset(), th)
			tbl.AddRow(th, sys.String(),
				fmt.Sprintf("%.1f", p.Throughput/1000),
				fmt.Sprintf("%.1f", p.AbortRate/1000))
		}
	}
	o.emit(tbl)
}

// figAutotune drives the online tuning runtime against a live workload
// starting from the paper's deliberately bad (2^8, 0, 1) configuration,
// printing one trace line per tuning period as the controller makes its
// moves; a mid-run phase shift exercises re-adaptation. It ends with the
// autotuned-vs-static comparison table: per phase, the median of the last
// third of the tuned periods against each static geometry's median over
// as many periods, measured the same way.
func figAutotune(o *options) {
	ac := experiments.DefaultAutotuneConfig(o.sc, o.kind)
	calm := o.intset()
	hot := calm
	hot.UpdatePct = min(o.update+60, 100)
	hot.Range = uint64(o.size) / 4 // working-set shrink: conflicts concentrate
	ac.Phases = []harness.IntsetParams{calm, hot}
	ac.Periods = o.periods
	ac.ShiftEvery = o.periods / 2
	if o.shift > 0 {
		ac.ShiftEvery = o.shift
	}
	ac.OnEvent = func(ev tuning.Event) {
		fmt.Println(ev)
		if ac.ShiftEvery > 0 && (ev.Period+1)%ac.ShiftEvery == 0 && ev.Period+1 < ac.Periods {
			fmt.Println("--- workload phase shift ---")
		}
	}
	fmt.Printf("autotune: %v, %d elements, %d%% updates, %d threads, period %v, start %v\n",
		o.kind, o.size, o.update, ac.Threads, ac.Period, ac.Start)
	r := experiments.AutotuneSweep(o.sc, ac)
	fmt.Println()
	o.emit(r.TraceTable("autotune trace"))
	o.emit(r.ComparisonTable())
	for phase, bs := range r.BestStatic {
		fmt.Printf("phase %d: autotuned %.0f txs/s vs. best static %v at %.0f txs/s (medians of %d periods)\n",
			phase, r.PhaseTuned[phase], bs.Params, bs.Throughput, r.PhaseSpan[phase])
	}
}
