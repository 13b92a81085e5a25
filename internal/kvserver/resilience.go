// The server half of the resilience stack: end-to-end deadline
// enforcement and brownout load shedding. exec (exec.go) applies both to
// every request of either surface; this file holds their accounting and
// the HTTP codec's deadline plumbing.
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
//
// The brownout ladder (resilience.Brownout, stepped by the tuning
// runtime from the request-latency histogram's per-period p99) sheds
// whole request classes in cost order — scans first, then writes, reads
// last — at the door, before any transaction or gate wait. Shed
// responses are 503 + Retry-After, the same shape as the lifecycle
// gate's refusals, so clients' existing retry classification applies.
package kvserver

import (
	"context"
	"net/http"
	"sync/atomic"
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

// shedStats counts deadline and brownout sheds for /metrics and /stats.
type shedStats struct {
	//stm:allow-atomic request accounting outside any transaction
	deadline [nSurfaces][nShedStages]atomic.Uint64
	//stm:allow-atomic request accounting outside any transaction
	brownout [resilience.NumClasses]atomic.Uint64
}

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
			stages[shedStageNames[st]] = s.shed.deadline[surf][st].Load()
		}
		out[surfaceNames[surf]] = stages
	}
	return out
}

// brownoutLevelName is the live level for /tuning ("off" without a
// ladder: the server is never shedding).
func (s *Server) brownoutLevelName() string {
	if s.brown == nil {
		return resilience.LevelOff.String()
	}
	return s.brown.Level().String()
}

// brownoutStats renders the ladder for /stats.
func (s *Server) brownoutStats() map[string]any {
	if s.brown == nil {
		return map[string]any{"enabled": false}
	}
	esc, deesc := s.brown.Moves()
	shed := make(map[string]uint64, resilience.NumClasses)
	for c := 0; c < resilience.NumClasses; c++ {
		shed[resilience.Class(c).String()] = s.shed.brownout[c].Load()
	}
	return map[string]any{
		"enabled":       true,
		"slo_ms":        s.brown.SLO().Milliseconds(),
		"level":         s.brown.Level().String(),
		"escalations":   esc,
		"deescalations": deesc,
		"shed":          shed,
	}
}
