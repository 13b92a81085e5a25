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

	"tinystm/internal/obs"
	"tinystm/internal/resilience"
)

var update = flag.Bool("update", false, "rewrite testdata/decisions.golden from the current rules")

// allControllers builds every shipped controller, at its defaults, over
// one fake system and one ladder with a 10ms SLO.
func allControllers(f *fakeSystem, brown *resilience.Brownout) []Controller {
	return []Controller{
		&geometry{sys: f, t: New(Config{Initial: f.params, Seed: 7})},
		NewAdmission(f, AdmissionConfig{}),
		NewBrownout(brown),
	}
}

// TestControllersReplayGolden is the proof that no decision rule, default,
// hold-down, ladder, floor or ceiling moved: a committed stream of samples
// (calm → abort storm → calm, write-only → idle) goes through all three
// controllers with no clock and no runtime, and the decisions must match
// the stream the rules produced when the fixture was recorded. A change
// to a rule shows up here as a diff; `go test -run ReplayGolden -update`
// accepts it.
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
	ctls := allControllers(f, resilience.NewBrownout(resilience.BrownoutConfig{SLO: 10 * time.Millisecond}))

	var got strings.Builder
	moved := map[string]int{}
	for _, s := range samples {
		ds := observe(ctls, s)
		install(ctls, ds)
		for _, d := range ds {
			fmt.Fprintf(&got, "%2d %-9s %-13v -> %-13v %s", s.Period, d.Controller, d.From, d.To, d.Outcome())
			if d.Controller == GeometryName && !s.Idle {
				fmt.Fprintf(&got, " move %s", d.Move.Signed(d.Reversed))
			}
			got.WriteByte('\n')
			if d.Moved {
				moved[d.Controller]++
			}
		}
	}
	for _, c := range ctls {
		if moved[c.Name()] == 0 {
			t.Errorf("the fixture never moves the %s controller: it proves nothing about its rules", c.Name())
		}
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

// failApply makes a controller's every move fail to land.
type failApply struct{ Controller }

var errNoLand = errors.New("move refused")

func (failApply) Apply(Decision) error { return errNoLand }

// TestRevertAfterFailedApply: whichever controller's Apply fails, Revert
// must leave the controller believing what the live system actually runs,
// the move must not be counted as landed, and the failure must be on the
// event — while the controllers beside it keep moving. The workload is a
// storm that gives every controller a reason to move.
func TestRevertAfterFailedApply(t *testing.T) {
	for victim, name := range []string{GeometryName, AdmissionName, BrownoutName} {
		t.Run(name, func(t *testing.T) {
			hist := obs.NewHistogram()
			rate := synthetic(p(12, 1, 2))
			f := newFakeSystem(p(8, 0, 1), 12*3, func(f *fakeSystem, d time.Duration) {
				dc := uint64(rate(f.params) * d.Seconds())
				f.commits += dc
				f.aborts += 9 * dc
				for range 8 {
					hist.Record(uint64(50 * time.Millisecond))
				}
			})
			brown := resilience.NewBrownout(resilience.BrownoutConfig{SLO: 10 * time.Millisecond})
			live := func() Knob {
				return map[string]Knob{
					GeometryName:  {Params: f.Params()},
					AdmissionName: {N: f.Width()},
					BrownoutName:  levelKnob(brown.Level()),
				}[name]
			}
			before := live()

			ctls := allControllers(f, brown)
			cfg := f.config(Config{Initial: f.params, Seed: 7}, ctls[1:]...)
			cfg.Latency = hist
			rt := NewRuntime(f, cfg)
			rt.ctls[victim] = failApply{rt.ctls[victim]}
			trace := f.runToEnd(t, rt)

			failed := 0
			for _, ev := range trace {
				if d := ev.Decision(name); d.Err != nil {
					failed++
				}
			}
			if failed < 2 || rt.Count(name, Failed) != uint64(failed) {
				t.Errorf("events carry %d failed moves, Count(failed) = %d; want equal and >= 2 (a reverted controller retries)",
					failed, rt.Count(name, Failed))
			}
			if rt.Moves(name) != 0 {
				t.Errorf("Moves = %d although no move ever landed", rt.Moves(name))
			}
			if got := rt.Knob(name); got != live() || got != before {
				t.Errorf("controller believes %v, the system runs %v (started at %v)", got, live(), before)
			}
			for _, other := range rt.Controllers() {
				if other != name && rt.Moves(other) == 0 {
					t.Errorf("%s never moved beside the failing %s", other, name)
				}
			}
		})
	}
}

// hotKeySplitter is the sixth controller: a complete one, written against
// the Controller interface alone. That it runs, is traced, counted and
// rendered without a line of runtime.go knowing its name is the point of
// the interface.
type hotKeySplitter struct{ shards, applied int }

func (h *hotKeySplitter) Name() string { return "split" }
func (h *hotKeySplitter) Knob() Knob   { return Knob{N: h.shards} }
func (h *hotKeySplitter) Observe(s Sample) Decision {
	return decide(h, s, func() bool {
		if s.Aborts <= s.Commits {
			return false
		}
		h.shards *= 2
		return true
	})
}
func (h *hotKeySplitter) Apply(d Decision) error { h.applied = d.To.N; return nil }
func (h *hotKeySplitter) Revert(d Decision)      { h.shards = d.From.N }

func TestSixthControllerNeedsNoRuntimeChange(t *testing.T) {
	f := newFakeSystem(p(10, 0, 1), 8*3, func(f *fakeSystem, d time.Duration) {
		f.commits += 100
		f.aborts += 300
	})
	split := &hotKeySplitter{shards: 1}
	// One-point bounds pin the geometry: only the splitter moves.
	pinned := Bounds{MinLocks: 1 << 10, MaxLocks: 1 << 10, MinHier: 1, MaxHier: 1}
	rt := NewRuntime(f, f.config(Config{Initial: f.params, Bounds: pinned}, split))
	trace := f.runToEnd(t, rt)

	if got := rt.Controllers(); len(got) != 2 || got[1] != "split" {
		t.Fatalf("Controllers() = %v", got)
	}
	if rt.Moves("split") != len(trace) || rt.Knob("split").N != 1<<len(trace) || split.applied != 1<<len(trace) {
		t.Errorf("after %d stormy periods: Moves = %d, Knob = %v, applied = %d",
			len(trace), rt.Moves("split"), rt.Knob("split"), split.applied)
	}
	if line := trace[0].String(); !strings.Contains(line, ", split 1 -> 2") {
		t.Errorf("trace line does not render the sixth controller: %q", line)
	}
}
