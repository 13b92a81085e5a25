package harness_test

import (
	"strings"
	"testing"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/harness"
	"tinystm/internal/mem"
	"tinystm/internal/rng"
)

func newRng(seed uint64) *rng.Rand { return rng.New(seed) }

func newTM(t testing.TB) *core.TM {
	t.Helper()
	sp := mem.NewSpace(1 << 22)
	return core.MustNew(core.Config{Space: sp, Locks: 1 << 12})
}

func TestRunCountsCommits(t *testing.T) {
	tm := newTM(t)
	set := harness.BuildIntset[*core.Tx](tm, harness.IntsetParams{
		Kind: harness.KindList, InitialSize: 32, UpdatePct: 20,
	}, 1)
	res := harness.Bench[*core.Tx]{
		Sys:      tm,
		Threads:  2,
		Duration: 50 * time.Millisecond,
		Seed:     7,
		Op: harness.IntsetOp[*core.Tx](tm, set, harness.IntsetParams{
			Kind: harness.KindList, InitialSize: 32, UpdatePct: 20,
		}),
	}.Run()
	if res.Delta.Commits == 0 {
		t.Fatal("no commits measured")
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %f", res.Throughput)
	}
	if res.Threads != 2 {
		t.Errorf("threads = %d", res.Threads)
	}
}

func TestBuildIntsetPopulatesExactly(t *testing.T) {
	tm := newTM(t)
	for _, kind := range []harness.Kind{harness.KindList, harness.KindRBTree} {
		set := harness.BuildIntset[*core.Tx](tm, harness.IntsetParams{
			Kind: kind, InitialSize: 100,
		}, 3)
		tx := tm.NewTx()
		var size int
		tm.Atomic(tx, func(tx *core.Tx) { size = set.Size(tx) })
		if size != 100 {
			t.Errorf("%v: size = %d, want 100", kind, size)
		}
	}
}

func TestIntsetOpAlternatesInsertRemove(t *testing.T) {
	// With UpdatePct=100 the set size must stay within [initial,
	// initial+1] for a single worker (insert, remove, insert, ...).
	tm := newTM(t)
	p := harness.IntsetParams{Kind: harness.KindList, InitialSize: 16, UpdatePct: 100}
	set := harness.BuildIntset[*core.Tx](tm, p, 5)
	op := harness.IntsetOp[*core.Tx](tm, set, p)
	w := &harness.Worker{ID: 0, Rng: newRng(9)}
	tx := tm.NewTx()
	for i := 0; i < 50; i++ {
		op(w, tx)
		var size int
		tm.Atomic(tx, func(tx *core.Tx) { size = set.Size(tx) })
		if size < 16 || size > 17 {
			t.Fatalf("op %d: size = %d, want 16 or 17", i, size)
		}
	}
}

func TestOverwriteRequiresList(t *testing.T) {
	tm := newTM(t)
	p := harness.IntsetParams{Kind: harness.KindRBTree, InitialSize: 8, OverwritePct: 5}
	set := harness.BuildIntset[*core.Tx](tm, p, 5)
	defer func() {
		if recover() == nil {
			t.Error("OverwritePct with rbtree did not panic")
		}
	}()
	harness.IntsetOp[*core.Tx](tm, set, p)
}

func TestOverwriteOpProducesWrites(t *testing.T) {
	tm := newTM(t)
	p := harness.IntsetParams{Kind: harness.KindList, InitialSize: 64, OverwritePct: 100}
	set := harness.BuildIntset[*core.Tx](tm, p, 5)
	op := harness.IntsetOp[*core.Tx](tm, set, p)
	w := &harness.Worker{ID: 0, Rng: newRng(11)}
	tx := tm.NewTx()
	before := tm.Stats()
	for i := 0; i < 20; i++ {
		op(w, tx)
	}
	d := tm.Stats().Sub(before)
	if d.Commits != 20 {
		t.Errorf("commits = %d, want 20", d.Commits)
	}
}

func TestTableRender(t *testing.T) {
	tbl := harness.Table{
		Title:   "demo",
		Headers: []string{"threads", "tp"},
	}
	tbl.AddRow(1, 1234.5)
	tbl.AddRow(8, "9999.9")
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"# demo", "threads", "1234.5", "9999.9"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	var csv strings.Builder
	tbl.RenderCSV(&csv)
	if !strings.HasPrefix(csv.String(), "threads,tp\n1,1234.5\n") {
		t.Errorf("csv wrong:\n%s", csv.String())
	}
}

func TestKindString(t *testing.T) {
	names := map[harness.Kind]string{
		harness.KindList:   "linked list",
		harness.KindRBTree: "red-black tree",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestBenchPanicsOnBadConfig(t *testing.T) {
	tm := newTM(t)
	for name, b := range map[string]harness.Bench[*core.Tx]{
		"no threads": {Sys: tm, Threads: 0, Duration: time.Millisecond, Op: func(*harness.Worker, *core.Tx) {}},
		"no op":      {Sys: tm, Threads: 1, Duration: time.Millisecond},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			b.Run()
		}()
	}
}
