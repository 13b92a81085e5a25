package tuning

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"tinystm/internal/core"
)

// Sample is one tuning period's measurement. The runtime builds it once
// per period and every controller reads the same one — the paper's
// "measure" step made once, not once per knob.
type Sample struct {
	// Period is the zero-based index of the tuning period.
	Period int `json:"period"`
	// Throughput is the maximum commits/second over the period's samples
	// (Section 4.3 measures three times and keeps the maximum).
	Throughput float64 `json:"throughput"`
	// Commits and Aborts are the raw counter deltas over the whole period.
	Commits uint64 `json:"commits"`
	Aborts  uint64 `json:"aborts"`
	// LatP50 and LatP99 are the period's request-latency quantiles and
	// LatSamples its request count, differenced from the attached latency
	// histogram (RuntimeConfig.Latency). Zero without one.
	LatP50     time.Duration `json:"lat_p50_ns,omitempty"`
	LatP99     time.Duration `json:"lat_p99_ns,omitempty"`
	LatSamples uint64        `json:"lat_samples,omitempty"`
	// Idle marks a paused period: the system was (nearly) quiescent, so
	// the measurement says nothing about any knob's quality. Controllers
	// hold on idle samples — except the brownout ladder, for which
	// idleness is the calm that walks it back down.
	Idle bool `json:"idle,omitempty"`
}

// Knob is one controller's setting. Geometry's is the triple; every other
// controller's is one integer (a gate width, a resilience.Level), with
// the name its owner prints it by when it has one.
type Knob struct {
	Params core.Params
	N      int
	Name   string
}

// value is the knob as its owner would show it: the triple, the name, or
// the number. String and the JSON form render it.
func (k Knob) value() any {
	switch {
	case k.Params != (core.Params{}):
		return k.Params
	case k.Name != "":
		return k.Name
	}
	return k.N
}

func (k Knob) String() string               { return fmt.Sprint(k.value()) }
func (k Knob) MarshalJSON() ([]byte, error) { return json.Marshal(k.value()) }

// Decision is what one controller chose for one period.
type Decision struct {
	// Controller is the deciding controller's Name.
	Controller string
	// From is the knob live during the period, To the one chosen for the
	// next; Moved marks a change (the runtime then calls Apply).
	From, To Knob
	Moved    bool
	// Move is the hill-climber's move number and Reversed the paper's
	// "-x" notation (reverse to best, then move x). Geometry only.
	Move     Move
	Reversed bool
	// Err reports a failed Apply: the system kept From and the controller
	// was reverted to it.
	Err error
}

// Outcome classifies a decision for the runtime's per-controller counts.
type Outcome string

const (
	Held  Outcome = "held"  // the controller kept its knob
	Moved Outcome = "moved" // a move landed on the live system
	// Reverted is a landed move that backed out to the best-known setting
	// (Decision.Reversed): the controller undoing an earlier move.
	Reverted Outcome = "reverted"
	Failed   Outcome = "failed" // Apply returned an error; the controller was rolled back
)

// Outcomes lists every outcome (exporters register each series up front).
var Outcomes = [...]Outcome{Held, Moved, Reverted, Failed}

// Outcome classifies d once Apply has run.
func (d Decision) Outcome() Outcome {
	switch {
	case d.Err != nil:
		return Failed
	case !d.Moved:
		return Held
	case d.Reversed:
		return Reverted
	}
	return Moved
}

// Controller is one knob's tuning loop: the paper's measure → decide →
// reconfigure cycle, with the measurement factored out into the shared
// Sample. The runtime calls Observe for every controller under its lock,
// then Apply for those that moved outside it, then Revert for those whose
// Apply failed. A controller in RuntimeConfig.Controllers is on; there is
// no enable flag.
type Controller interface {
	// Name identifies the controller in decisions, Runtime.Knob/Moves and
	// the exported metrics.
	Name() string
	// Observe consumes the period's sample and decides. It runs under the
	// runtime lock and must not block.
	Observe(Sample) Decision
	// Apply installs d.To on the live system. It runs outside the lock
	// and may block (Reconfigure freezes the world). Only called when
	// d.Moved.
	Apply(d Decision) error
	// Revert rolls the controller's belief back to the live system after
	// a failed Apply, so no later measurement is credited to a setting
	// that never ran.
	Revert(d Decision)
	// Knob is the setting the controller believes is installed.
	Knob() Knob
}

// Event is one tuning period as observed by the runtime — the Sample every
// controller read and what each one decided — published on the trace
// channel and retained in the runtime's own trace. Decisions follows the
// controller list, so it leads with the geometry controller's.
type Event struct {
	Sample
	Decisions []Decision
}

// Decision returns the named controller's decision (the zero Decision
// when that controller is not running).
func (e Event) Decision(controller string) Decision {
	for _, d := range e.Decisions {
		if d.Controller == controller {
			return d
		}
	}
	return Decision{}
}

// String renders one trace line: the geometry controller's "cfg → tp via
// move", then every controller whose move landed or failed.
func (e Event) String() string {
	g := e.Decisions[0]
	var b strings.Builder
	if e.Idle {
		fmt.Fprintf(&b, "period %d: %v idle (%d commits), holding", e.Period, g.From, e.Commits)
	} else {
		fmt.Fprintf(&b, "period %d: %v %.0f txs/s, move %v -> %v", e.Period, g.From, e.Throughput, g.Move.Signed(g.Reversed), g.To)
		if e.LatSamples > 0 {
			fmt.Fprintf(&b, ", lat p50=%v p99=%v (%d reqs)", e.LatP50, e.LatP99, e.LatSamples)
		}
	}
	for i, d := range e.Decisions {
		switch {
		case d.Err != nil:
			fmt.Fprintf(&b, ", %s %v -> %v failed: %v", d.Controller, d.From, d.To, d.Err)
		case d.Moved && i > 0:
			fmt.Fprintf(&b, ", %s %v -> %v", d.Controller, d.From, d.To)
		}
	}
	return b.String()
}

// Controller names.
const (
	GeometryName  = "geometry"
	AdmissionName = "admission"
	BrownoutName  = "brownout"
)

// decide wraps one rule-engine step in a Decision: the knob before, the
// step's verdict, the knob after. On an idle sample the step is skipped
// and the controller holds — near-zero load says nothing about a knob.
func decide(c Controller, s Sample, step func() (moved bool)) Decision {
	d := Decision{Controller: c.Name(), From: c.Knob()}
	d.Moved = !s.Idle && step()
	d.To = c.Knob()
	return d
}

// observe runs every controller over the period's sample, in list order.
func observe(ctls []Controller, s Sample) []Decision {
	ds := make([]Decision, len(ctls))
	for i, c := range ctls {
		ds[i] = c.Observe(s)
	}
	return ds
}

// install applies every moved decision to its live system, recording
// failures on the decision.
func install(ctls []Controller, ds []Decision) {
	for i, c := range ctls {
		if ds[i].Moved {
			ds[i].Err = c.Apply(ds[i])
		}
	}
}
