// The request pipeline. Both surfaces are codecs around exec: each parses
// its transport's bytes into a kvproto.Request, calls exec, and renders
// the kvproto.Response. Everything that decides whether and how a data
// request runs lives here and only here:
//
//	lifecycle gate → deadline (op) → update admission (deadline at the
//	gate) → store call → panic-to-status → [durability wait] → latency
//
// Admission is waited for by a caller whose goroutine is the request's own
// (HTTP, a binary op goroutine) and only tried by one that serves other
// requests too (a binary connection's reader): with the gate full that
// caller gets the request back unrun (wouldPark) and gives it a goroutine.
//
// The durability wait is the one step execInto does not take itself. Under
// group durability an update's store call returns with the commit done and
// its WAL ticket unresolved; execInto hands that open half back (ackWait)
// and the codec decides where to wait — HTTP inline in exec, one blocked
// handler per request; the binary connection nowhere: it holds the answer
// and the WAL's flusher delivers it, so the reader keeps reading — and
// then calls settle, which turns a failed ticket into a status and records
// the latency over the whole span, wait included.
//
// The admission slot is returned when the transaction commits, not when it
// is durable: the gate bounds the transactions that can conflict with each
// other, and a committed one conflicts with nobody while the disk catches
// up.
//
// A refusal is a status, never a transport error: StatusUnavailable for
// the lifecycle gate or a failed durability wait (503 + Retry-After on
// HTTP), StatusDeadlineExceeded for a spent budget (504),
// StatusError for a request that can never succeed (400, or 507 for
// arena exhaustion).
package kvserver

import (
	"sync"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/kvproto"
	"tinystm/internal/kvstore"
	"tinystm/internal/obs"
	"tinystm/internal/txn"
	"tinystm/internal/wal"
)

// storeKinds maps wire sub-op codes to store op kinds, wireOps back.
var (
	storeKinds = [...]kvstore.OpKind{
		kvproto.OpGet:    kvstore.OpGet,
		kvproto.OpPut:    kvstore.OpPut,
		kvproto.OpDelete: kvstore.OpDelete,
		kvproto.OpCAS:    kvstore.OpCAS,
		kvproto.OpAdd:    kvstore.OpAdd,
	}
	wireOps = [...]kvproto.Op{
		kvstore.OpGet:    kvproto.OpGet,
		kvstore.OpPut:    kvproto.OpPut,
		kvstore.OpDelete: kvproto.OpDelete,
		kvstore.OpCAS:    kvproto.OpCAS,
		kvstore.OpAdd:    kvproto.OpAdd,
	}
)

// ackWait is the open half of a request whose update has committed but
// whose log records are not on disk yet: the ticket to wait on, and the two
// instants settle measures from. wouldPark is the other way execInto leaves
// a request open, and only for the reader of a binary connection: nothing
// ran and nothing was counted, because the admission gate is full.
type ackWait struct {
	ticket    *wal.Pending
	start     time.Duration // the request's latency span began (obs.Mono)
	commit    time.Duration // the store call returned (obs.Mono)
	wouldPark bool
}

// batchCarrier is one request's memory from its codec to its answer: the
// store ops and result slots a batch runs through — the answer's Results
// are those slots, filled by the store and encoded where they lie — and,
// for a binary request given a goroutine of its own, the request itself.
// The one rule: a carrier goes back to batchCarriers when its answer has
// been encoded, and not before — by protoConn.send, by the delivery or
// sendResolved of a held answer, after writeBody for HTTP. A binary
// connection's reader keeps one as its scratch, and a batch it ran whose
// answer is held takes that scratch along (protoConn.answer). A preload's
// 1 024-op batches thus reuse a few carriers and leave no garbage for a
// collector that does not run before the preload ends.
type batchCarrier struct {
	req kvproto.Request
	ops []kvstore.Op
	res []kvstore.OpResult
}

var batchCarriers = sync.Pool{New: func() any { return new(batchCarrier) }}

// takeCarrier returns a recycled carrier, or a new one.
func takeCarrier() *batchCarrier { return batchCarriers.Get().(*batchCarrier) }

// slots returns n op slots and the n result slots aligned with them,
// growing b to at least shortBatch, so a reader's scratch grows once.
func (b *batchCarrier) slots(n int) ([]kvstore.Op, []kvstore.OpResult) {
	if cap(b.ops) < n {
		m := max(n, shortBatch)
		b.ops, b.res = make([]kvstore.Op, m), make([]kvstore.OpResult, m)
	}
	return b.ops[:n], b.res[:n]
}

// recycle gives b back to batchCarriers, its answer encoded; a nil b is
// none. The request goes: its Ops may be a connection's decode backing.
func (b *batchCarrier) recycle() {
	if b != nil {
		b.req = kvproto.Request{}
		batchCarriers.Put(b)
	}
}

// exec runs one decoded request from surface surf against the store and
// builds its response in resp, waiting inline for a group-durable update's
// ticket: the form for a codec with a goroutine per request (HTTP). dl is
// the request's absolute deadline (zero: none), re-anchored by the codec
// the moment the request left the transport.
func (s *Server) exec(surf int, dl time.Time, req *kvproto.Request, resp *kvproto.Response, bc *batchCarrier) {
	if ack := s.execInto(surf, dl, req, resp, bc, false); ack.ticket != nil {
		s.settle(surf, resp, ack)
	}
}

// settle finishes a request execInto left open. It blocks until the ticket
// resolves (a caller that has seen ticket.Done never blocks here), refuses
// the acknowledgement if the log failed, and records the request's latency
// from its start to now, so the span covers the durability wait wherever
// it was spent.
func (s *Server) settle(surf int, resp *kvproto.Response, ack ackWait) {
	if err := ack.ticket.Wait(); err != nil {
		// The commit exists in memory but its log records never reached
		// disk: refuse the ack. The WAL's OnError has already flipped the
		// server degraded, so this is a retry-later.
		*resp = kvproto.Response{ID: resp.ID, Op: resp.Op, Status: kvproto.StatusUnavailable,
			Msg: (&kvstore.DurabilityError{Err: err}).Error()}
	}
	now := obs.Mono()
	s.met.ackWaitNs.Record(uint64(now - ack.commit))
	s.recordLatency(surf, resp.Op, now-ack.start)
}

func (s *Server) recordLatency(surf int, op kvproto.Op, d time.Duration) {
	s.met.req[surf][op-kvproto.OpGet].Record(uint64(d))
}

// execInto is exec into a caller-owned response, overwritten whole: a
// codec that answers one request at a time reuses one Response for all of
// them, and a single-key request then allocates nothing on its way through.
// It never waits for the disk. A zero ackWait says resp is final; one with
// a ticket says resp is what to answer IF the ticket resolves clean, and
// the caller owes a settle before it sends anything.
//
// A batch runs in bc's slots, and resp.Results is bc's until its answer
// is encoded; a caller that may get a batch lends a carrier.
//
// Without onReader the caller's goroutine is the request's own and an
// update queues at a full admission gate (EnterUntil). On a binary
// connection's reader execInto tries the gate instead (TryEnter): a free
// slot is taken and the request runs exactly as above; a full gate returns
// wouldPark with nothing run, shed or recorded, and the caller runs the
// request again from a goroutine that may wait. A spent budget is shed at
// the gate either way.
func (s *Server) execInto(surf int, dl time.Time, req *kvproto.Request, resp *kvproto.Response, bc *batchCarrier, onReader bool) (ack ackWait) {
	*resp = kvproto.Response{ID: req.ID, Op: req.Op}
	if req.Op < kvproto.OpGet || req.Op > kvproto.OpScan {
		resp.Status, resp.Msg = kvproto.StatusError, "unknown op"
		return
	}
	if msg := s.refusal(req.Op); msg != "" {
		resp.Status, resp.Msg = kvproto.StatusUnavailable, msg
		return
	}
	t0 := obs.Mono()
	defer func() {
		// Arena exhaustion becomes a status instead of tearing down the
		// caller's goroutine. Any other panic is a real bug and is
		// re-raised.
		if rec := recover(); rec != nil {
			if rec != core.ErrSpaceExhausted {
				panic(rec)
			}
			resp.Status, resp.Msg = kvproto.StatusError, core.ErrSpaceExhausted.Error()
		}
		if ack.ticket == nil && !ack.wouldPark {
			s.recordLatency(surf, req.Op, obs.Mono()-t0)
		}
	}()

	// Classify: which requests are update transactions (and pass the
	// admission gate), and which are long enough that a spent budget must
	// stop them before they start.
	var ops []kvstore.Op
	var res []kvstore.OpResult
	update := false
	switch req.Op {
	case kvproto.OpPut, kvproto.OpDelete, kvproto.OpCAS, kvproto.OpAdd:
		update = true
	case kvproto.OpBatch:
		if len(req.Ops) == 0 {
			resp.Status, resp.Msg = kvproto.StatusError, "empty batch"
			return
		}
		if expired(dl) {
			s.shedDeadline(surf, shedStageOp, resp)
			return
		}
		// An all-Get batch runs as an ungated snapshot read, exactly like
		// Apply's own read-only path.
		ops, res = bc.slots(len(req.Ops))
		for i, o := range req.Ops {
			ops[i] = kvstore.Op{Kind: storeKinds[o.Op], Key: o.Key, Val: o.Val, Old: o.Old}
			update = update || o.Op != kvproto.OpGet
		}
	case kvproto.OpScan:
		if expired(dl) {
			s.shedDeadline(surf, shedStageOp, resp)
			return
		}
	}
	if update {
		// Claim an update slot or find the budget ran out first: the gate
		// sheds instead of queueing a corpse. A zero deadline never sheds.
		if s.gate == nil {
			if expired(dl) {
				s.shedDeadline(surf, shedStageGate, resp)
				return
			}
		} else if onReader {
			admitted, late := s.gate.TryEnter(dl)
			if late {
				s.shedDeadline(surf, shedStageGate, resp)
				return
			}
			if !admitted {
				ack.wouldPark = true
				return
			}
			s.met.admWaitNs.Record(0)
			defer s.gate.Exit()
		} else {
			tw := obs.Mono()
			if !s.gate.EnterUntil(dl) {
				s.shedDeadline(surf, shedStageGate, resp)
				return
			}
			s.met.admWaitNs.Record(uint64(obs.Mono() - tw))
			defer s.gate.Exit()
		}
	}

	var ticket txn.DurableTicket
	switch req.Op {
	case kvproto.OpGet:
		resp.Val, resp.Found = s.store.Get(req.Key)
	case kvproto.OpPut, kvproto.OpDelete, kvproto.OpCAS, kvproto.OpAdd:
		var r kvstore.OpResult
		r, ticket = s.store.Update(storeKinds[req.Op], req.Key, req.Val, req.Old)
		resp.Val, resp.Found, resp.OK = r.Val, r.Found, r.OK
	case kvproto.OpBatch:
		ticket = s.store.ApplyInto(ops, res)
		resp.Results = res
	case kvproto.OpScan:
		// The walk stops at the pair cap; Total is then the store's key
		// count (Store.Scan), which may trail under traffic.
		limit := kvproto.MaxScanPairs
		if req.Limit > 0 && int(req.Limit) < limit {
			limit = int(req.Limit)
		}
		resp.Pairs, resp.Total = s.store.Scan(limit)
		resp.Snapshot = s.tm.SnapshotsEnabled()
	}
	if ticket != nil {
		// The server's redo hook returns wal.Log.Append's ticket.
		ack = ackWait{ticket: ticket.(*wal.Pending), start: t0, commit: obs.Mono()}
	}
	return
}

// mayPark reports whether req runs long whatever the server's state: a
// scan walks up to MaxScanPairs pairs, a batch is as long as the client
// made it. A codec that serves many requests from one goroutine gives such
// a request its own without trying. Nothing else is decided ahead of time:
// whether an update has to wait at the admission gate is something
// execInto finds out by trying (wouldPark), and it never waits for the
// disk.
func mayPark(req *kvproto.Request) bool {
	return req.Op == kvproto.OpScan || (req.Op == kvproto.OpBatch && len(req.Ops) > shortBatch)
}

// refusal is the door: it returns why a data request of kind op may not
// run right now, or "" when it may. The lifecycle gate requires a ready
// server, except that point reads and scans still serve in degraded mode
// (committed memory is intact). A batch counts as a write even when its
// ops are all Gets: the door looks at the op, not inside it.
func (s *Server) refusal(op kvproto.Op) string {
	switch s.dur.state.Load() {
	case stateReady:
		return ""
	case stateDegraded:
		if op == kvproto.OpGet || op == kvproto.OpScan {
			return ""
		}
		return "degraded: write-ahead log failed; serving reads only"
	case stateFailed:
		return "recovery failed; see /stats"
	default: // stateStarting
		return "recovering write-ahead log"
	}
}

// shedDeadline stamps resp as a deadline shed and counts it per surface
// and stage, so /metrics can prove where requests die under overload.
func (s *Server) shedDeadline(surf, stage int, resp *kvproto.Response) {
	s.deadlineShed[surf][stage].Add(1)
	resp.Status = kvproto.StatusDeadlineExceeded
	resp.Msg = "deadline exceeded before execution (" + shedStageNames[stage] + ")"
}

// expired reports whether a non-zero deadline has passed.
func expired(dl time.Time) bool {
	return !dl.IsZero() && !time.Now().Before(dl)
}
