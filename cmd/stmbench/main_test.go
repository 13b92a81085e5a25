package main

import (
	"flag"
	"strings"
	"testing"
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
