package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"tinystm/internal/harness"
)

// TestFigUsageMatchesDispatchTable: the names -fig's usage string
// advertises and the names the dispatch table runs are the one list CI's
// smoke loop and the README reproduce block walk.
func TestFigUsageMatchesDispatchTable(t *testing.T) {
	const want = "2 3 4 4r 5 6 7 8 9 10 11 12 snapshot custom autotune"

	fs := flag.NewFlagSet("stmbench", flag.ContinueOnError)
	o := declare(fs)
	if _, advertised, _ := strings.Cut(fs.Lookup("fig").Usage, ": "); advertised != want {
		t.Errorf("-fig usage lists %q, want %q", advertised, want)
	}
	var dispatched []string
	for _, f := range figures {
		if f.run == nil {
			t.Errorf("figure %q has no runner", f.name)
		}
		dispatched = append(dispatched, f.name)
	}
	if got := strings.Join(dispatched, " "); got != want {
		t.Errorf("dispatch table runs %q, want %q", got, want)
	}
	if !strings.Contains(" "+want+" ", " "+o.fig+" ") {
		t.Errorf("default -fig %q is not in the table", o.fig)
	}
}

func TestParseInts(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"1,2,4,6,8", []int{1, 2, 4, 6, 8}, true},
		{" 1, 2 ", []int{1, 2}, true},
		{"7", []int{7}, true},
		{"1,,2", []int{1, 2}, true},
		{"", nil, false},
		{"a,b", nil, false},
		{"1,x", nil, false},
	}
	for _, c := range cases {
		got, err := parseInts(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseInts(%q) err = %v, ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseInts(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseUints(t *testing.T) {
	got, err := parseUnsigned[uint]("0,3,6")
	if err != nil || !reflect.DeepEqual(got, []uint{0, 3, 6}) {
		t.Errorf("parseUnsigned[uint] = %v, %v", got, err)
	}
	if _, err := parseUnsigned[uint]("-1"); err == nil {
		t.Error("negative accepted")
	}
}

func TestParseUint64s(t *testing.T) {
	got, err := parseUnsigned[uint64]("4,16,64")
	if err != nil || !reflect.DeepEqual(got, []uint64{4, 16, 64}) {
		t.Errorf("parseUnsigned[uint64] = %v, %v", got, err)
	}
	if _, err := parseUnsigned[uint64]("-2"); err == nil {
		t.Error("negative accepted")
	}
}

func TestParseKind(t *testing.T) {
	cases := map[string]harness.Kind{
		"list": harness.KindList, "LL": harness.KindList,
		"rbtree": harness.KindRBTree, "RB": harness.KindRBTree, "tree": harness.KindRBTree,
	}
	for in, want := range cases {
		got, err := parseKind(in)
		if err != nil || got != want {
			t.Errorf("parseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"btree", "skiplist", "skip", "hashset", "hash"} {
		_, err := parseKind(bad)
		if err == nil {
			t.Errorf("parseKind(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "(list, rbtree)") {
			t.Errorf("parseKind(%q) error %q does not name (list, rbtree)", bad, err)
		}
	}
}

func TestScale(t *testing.T) {
	fs := flag.NewFlagSet("stmbench", flag.ContinueOnError)
	o := declare(fs)
	if err := fs.Parse([]string{"-duration", "2s", "-warmup", "100ms", "-threads", "1,4", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	sc := o.scale()
	if sc.Duration != 2*time.Second || sc.Warmup != 100*time.Millisecond {
		t.Errorf("scale durations wrong: %+v", sc)
	}
	if !reflect.DeepEqual(sc.Threads, []int{1, 4}) || sc.Seed != 7 {
		t.Errorf("scale threads/seed wrong: %+v", sc)
	}
	o.quick, o.threads, o.warmup, o.yield = true, "1", 0, 4
	q := o.scale()
	if q.Duration >= time.Second {
		t.Errorf("quick scale not quick: %+v", q)
	}
	if !reflect.DeepEqual(q.Threads, []int{1}) {
		t.Errorf("quick scale threads not overridden: %+v", q)
	}
}
