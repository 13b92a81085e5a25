package core

import "testing"

func TestParamsString(t *testing.T) {
	cases := []struct {
		p    Params
		want string
	}{
		{Params{Locks: 1 << 16, Shifts: 0, Hier: 1}, "(locks=2^16, shifts=0, h=1)"},
		{Params{Locks: 0, Shifts: 2, Hier: 4}, "(locks=0, shifts=2, h=4)"},
		{Params{Locks: 1000, Shifts: 0, Hier: 1}, "(locks=1000, shifts=0, h=1)"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestParsePow2(t *testing.T) {
	cases := map[string]uint64{"65536": 65536, "2^16": 1 << 16, "2^0": 1, " 2^4 ": 16, "1": 1}
	for in, want := range cases {
		got, err := parsePow2(in)
		if err != nil || got != want {
			t.Errorf("parsePow2(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "2^", "2^64", "2^x", "-4", "four"} {
		if _, err := parsePow2(bad); err == nil {
			t.Errorf("parsePow2(%q) accepted", bad)
		}
	}
}

func TestParseParams(t *testing.T) {
	p, err := ParseParams("2^16,0,1")
	if err != nil || p != (Params{Locks: 1 << 16, Shifts: 0, Hier: 1}) {
		t.Errorf("2^16,0,1: %+v %v", p, err)
	}
	p, err = ParseParams("1024, 2, 2^3")
	if err != nil || p != (Params{Locks: 1024, Shifts: 2, Hier: 8}) {
		t.Errorf("1024,2,2^3: %+v %v", p, err)
	}
	for _, bad := range []string{"", "1,2", "1,2,3,4", "x,0,1", "16,-1,1", "16,0,z"} {
		if _, err := ParseParams(bad); err == nil {
			t.Errorf("ParseParams(%q) accepted", bad)
		}
	}
}
