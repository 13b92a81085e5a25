// Package resilience is the request-path robustness layer: deadline
// propagation, token-bucket retry budgets and a circuit breaker. The
// mechanisms are deliberately boring — small deterministic state machines
// with injectable clocks and seeded randomness — because every one of them sits on a failure path, and a
// failure path is exactly where surprising behavior costs the most.
//
// Deadlines are carried as RELATIVE budgets (milliseconds remaining),
// not absolute wall-clock times: the HTTP surface uses the
// TimeoutHeader request header, the binary surface a flag-bit-gated
// frame field (see kvproto). A relative budget re-anchors at server
// receipt, so client/server clock skew cannot spuriously expire (or
// immortalize) a request; the cost is that network transit does not
// consume budget, which is the right trade for a LAN service whose
// queueing delay dwarfs its propagation delay. Servers check the
// deadline at every stage where a request can have waited — admission,
// the update gate, worker dequeue, and inside long operations — and
// shed expired work instead of burning a worker on an answer nobody is
// waiting for.
//
// The retry budget and the breaker are a client's storm control: the
// budget caps how much extra load a SINGLE client may add when the server
// hiccups, and the breaker stops a client from hammering a DEAD server at
// all. The server's own defence is the deadline: work nobody waits for
// any more is shed, not run.
package resilience

import (
	"errors"
	"strconv"
	"time"
)

// TimeoutHeader is the HTTP request header carrying the per-request
// deadline budget in integer milliseconds (e.g. "X-Timeout-Ms: 250").
// Zero or absent means no deadline.
const TimeoutHeader = "X-Timeout-Ms"

// MaxTimeout caps a single request's deadline budget. A budget above
// this is rejected rather than clamped: it is almost certainly a unit
// mistake (seconds or nanoseconds in a milliseconds field), and
// silently honoring it would pin server resources for hours.
const MaxTimeout = time.Hour

// ErrBadTimeout reports a deadline budget that is not a positive
// integer number of milliseconds within MaxTimeout.
var ErrBadTimeout = errors.New("resilience: timeout must be integer milliseconds in (0, 3600000]")

// ParseTimeout parses a TimeoutHeader value into a duration.
// The empty string is "no deadline" (0, nil).
func ParseTimeout(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	ms, err := strconv.ParseUint(v, 10, 32)
	if err != nil || ms == 0 || time.Duration(ms)*time.Millisecond > MaxTimeout {
		return 0, ErrBadTimeout
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// TimeoutMs converts a duration to the wire representation: integer
// milliseconds, rounded UP so a sub-millisecond budget does not
// silently become "no deadline", and clamped to MaxTimeout.
func TimeoutMs(d time.Duration) uint32 {
	if d <= 0 {
		return 0
	}
	if d > MaxTimeout {
		d = MaxTimeout
	}
	ms := (d + time.Millisecond - 1) / time.Millisecond
	return uint32(ms)
}
