package tuning

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"tinystm/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/decisions.golden from the current rules")

// TestControllersReplayGolden is the proof that no decision rule, default,
// hold-down, floor or ceiling moved: a committed stream of samples
// (calm → abort storm → calm, write-only → idle) goes through the
// runtime's own period step — the hill climber — with no clock and no
// goroutine, and the decisions must match the stream
// the rules produced when the fixture was recorded. A change to a rule
// shows up here as a diff; `go test -run ReplayGolden -update` accepts it.
func TestControllersReplayGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/samples.json")
	if err != nil {
		t.Fatal(err)
	}
	var samples []Sample
	if err := json.Unmarshal(raw, &samples); err != nil {
		t.Fatal(err)
	}
	if len(samples) < 60 {
		t.Fatalf("fixture holds %d periods, want >= 60", len(samples))
	}
	f := newFakeSystem(p(8, 0, 1), 0, nil)
	cfg := f.config(Config{Initial: f.params, Seed: 7})
	rt := NewRuntime(f, cfg)
	for _, s := range samples {
		rt.step(s)
	}

	var got strings.Builder
	for _, ev := range rt.Trace() {
		fmt.Fprintf(&got, "%2d %-9s %-13v -> %-13v %s", ev.Period, "geometry", ev.From, ev.To, ev.Outcome())
		if !ev.Idle {
			fmt.Fprintf(&got, " move %s", ev.Move.Signed(ev.Reversed))
		}
		got.WriteByte('\n')
	}
	if geom := rt.Counts(); geom.Landed() == 0 {
		t.Errorf("the fixture moves the tuner %d times: it proves nothing about a loop that never moves",
			geom.Landed())
	}

	const golden = "testdata/decisions.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("decision %d differs from %s:\n got: %s\nwant: %s", i, golden, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("replay produced %d lines, %s holds %d", len(gotLines), golden, len(wantLines))
	}
}

// refusing is a system whose every Reconfigure fails.
type refusing struct{ *fakeSystem }

var errNoLand = errors.New("move refused")

func (refusing) Reconfigure(core.Params) error { return errNoLand }

// TestRevertAfterFailedApply runs a storm that gives the tuner every
// reason to move on a system that refuses every Reconfigure: the tuner
// must end believing what the system actually runs, no refused move may
// count as landed, and every failure must be on its event.
func TestRevertAfterFailedApply(t *testing.T) {
	rate := synthetic(p(12, 1, 2))
	f := newFakeSystem(p(8, 0, 1), 12*3, func(f *fakeSystem, d time.Duration) {
		dc := uint64(rate(f.params) * d.Seconds())
		f.commits += dc
		f.aborts += 9 * dc
	})
	rt := NewRuntime(refusing{f}, f.config(Config{Initial: f.params, Seed: 7}))
	trace := f.runToEnd(t, rt)
	geom := rt.Counts()

	t.Run("geometry", func(t *testing.T) {
		failed := 0
		for _, ev := range trace {
			if ev.Err != nil {
				failed++
			}
		}
		if failed < 2 || geom[Failed] != uint64(failed) {
			t.Errorf("events carry %d failed moves, Counts()[failed] = %d; want equal and >= 2 (a reverted tuner retries)",
				failed, geom[Failed])
		}
		if geom.Landed() != 0 {
			t.Errorf("%d moves counted as landed although none ever did", geom.Landed())
		}
		if got := rt.Current(); got != f.Params() || got != p(8, 0, 1) {
			t.Errorf("tuner believes %v, the system runs %v (started at %v)", got, f.Params(), p(8, 0, 1))
		}
	})
}
