// The server half of the resilience stack: end-to-end deadline
// enforcement. exec (exec.go) applies it to every request of either
// surface; this file holds its accounting and the HTTP codec's deadline
// plumbing.
//
// Deadlines travel as RELATIVE budgets (the X-Timeout-Ms header on HTTP,
// the flagged TimeoutMs field on the wire protocol) and are re-anchored
// to an absolute deadline the moment the server reads the request —
// clock-skew immune by construction. From there the budget is checked at
// every stage where the request can grow stale while costing nothing:
// before execution (proto dequeue — the op sat in the connection's
// pipeline), at the admission gate (EnterUntil sheds instead of queueing
// a corpse), and before long operations start. A shed is answered 504 on
// HTTP and StatusDeadlineExceeded on the wire, and counted per
// surface+stage so /metrics can prove WHERE requests die under overload.
package kvserver

import (
	"context"
	"net/http"
	"time"

	"tinystm/internal/resilience"
)

// Deadline-shed stages: where a request's budget ran out.
const (
	// shedStageDequeue: expired between arrival and execution (the proto
	// pipeline queue; HTTP has no equivalent queue the server can see).
	shedStageDequeue = iota
	// shedStageGate: expired waiting at (or arriving expired to) the
	// update-admission gate.
	shedStageGate
	// shedStageOp: expired immediately before a long operation (scan,
	// batch) would have started.
	shedStageOp
	nShedStages
)

var shedStageNames = [nShedStages]string{"dequeue", "gate", "op"}

// deadlineKey carries a request's absolute deadline in its context.
type deadlineKey struct{}

// httpDeadline parses the X-Timeout-Ms header into an absolute deadline
// (zero: none). The error is a client error (400).
func httpDeadline(r *http.Request) (time.Time, error) {
	d, err := resilience.ParseTimeout(r.Header.Get(resilience.TimeoutHeader))
	if err != nil || d == 0 {
		return time.Time{}, err
	}
	return time.Now().Add(d), nil
}

// withDeadline stashes a non-zero deadline on the request context.
func withDeadline(r *http.Request, dl time.Time) *http.Request {
	if dl.IsZero() {
		return r
	}
	return r.WithContext(context.WithValue(r.Context(), deadlineKey{}, dl))
}

// deadlineOf recovers the request's absolute deadline (zero: none).
func deadlineOf(r *http.Request) time.Time {
	dl, _ := r.Context().Value(deadlineKey{}).(time.Time)
	return dl
}

// deadlineShedStats renders the per-surface/stage shed counters.
func (s *Server) deadlineShedStats() map[string]any {
	out := make(map[string]any, nSurfaces)
	for surf := 0; surf < nSurfaces; surf++ {
		stages := make(map[string]uint64, nShedStages)
		for st := 0; st < nShedStages; st++ {
			stages[shedStageNames[st]] = s.deadlineShed[surf][st].Load()
		}
		out[surfaceNames[surf]] = stages
	}
	return out
}
