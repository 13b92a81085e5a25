package cliutil

import (
	"reflect"
	"testing"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/harness"
)

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
		got, err := ParseInts(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseInts(%q) err = %v, ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseInts(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseUints(t *testing.T) {
	got, err := ParseUints("0,3,6")
	if err != nil || !reflect.DeepEqual(got, []uint{0, 3, 6}) {
		t.Errorf("ParseUints = %v, %v", got, err)
	}
	if _, err := ParseUints("-1"); err == nil {
		t.Error("negative accepted")
	}
}

func TestParseUint64s(t *testing.T) {
	got, err := ParseUint64s("4,16,64")
	if err != nil || !reflect.DeepEqual(got, []uint64{4, 16, 64}) {
		t.Errorf("ParseUint64s = %v, %v", got, err)
	}
	if _, err := ParseUint64s("-2"); err == nil {
		t.Error("negative accepted")
	}
}

func TestParseKind(t *testing.T) {
	cases := map[string]harness.Kind{
		"list": harness.KindList, "LL": harness.KindList,
		"rbtree": harness.KindRBTree, "RB": harness.KindRBTree, "tree": harness.KindRBTree,
		"skiplist": harness.KindSkipList, "skip": harness.KindSkipList,
		"hashset": harness.KindHashSet, "hash": harness.KindHashSet,
	}
	for in, want := range cases {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseKind("btree"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestScale(t *testing.T) {
	sc := Scale(2*time.Second, 100*time.Millisecond, []int{1, 4}, 7, false, 0)
	if sc.Duration != 2*time.Second || sc.Warmup != 100*time.Millisecond {
		t.Errorf("scale durations wrong: %+v", sc)
	}
	if !reflect.DeepEqual(sc.Threads, []int{1, 4}) || sc.Seed != 7 {
		t.Errorf("scale threads/seed wrong: %+v", sc)
	}
	q := Scale(2*time.Second, 0, []int{1}, 7, true, 4)
	if q.Duration >= time.Second {
		t.Errorf("quick scale not quick: %+v", q)
	}
	if !reflect.DeepEqual(q.Threads, []int{1}) {
		t.Errorf("quick scale threads not overridden: %+v", q)
	}
}

func TestParsePow2(t *testing.T) {
	cases := map[string]uint64{"65536": 65536, "2^16": 1 << 16, "2^0": 1, " 2^4 ": 16, "1": 1}
	for in, want := range cases {
		got, err := ParsePow2(in)
		if err != nil || got != want {
			t.Errorf("ParsePow2(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "2^", "2^64", "2^x", "-4", "four"} {
		if _, err := ParsePow2(bad); err == nil {
			t.Errorf("ParsePow2(%q) accepted", bad)
		}
	}
}

func TestParseParams(t *testing.T) {
	p, err := ParseParams("2^16,0,1")
	if err != nil || p != (core.Params{Locks: 1 << 16, Shifts: 0, Hier: 1}) {
		t.Errorf("2^16,0,1: %+v %v", p, err)
	}
	p, err = ParseParams("1024, 2, 2^3")
	if err != nil || p != (core.Params{Locks: 1024, Shifts: 2, Hier: 8}) {
		t.Errorf("1024,2,2^3: %+v %v", p, err)
	}
	for _, bad := range []string{"", "1,2", "1,2,3,4", "x,0,1", "16,-1,1", "16,0,z"} {
		if _, err := ParseParams(bad); err == nil {
			t.Errorf("ParseParams(%q) accepted", bad)
		}
	}
}
