package kvserver

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"tinystm/internal/kvproto"
	"tinystm/internal/wal"
)

// Tests of the binary connection's execution rule (proto.go): the reader
// runs every update and every short batch itself and tries the admission
// gate instead of waiting at it; only a full gate, a long batch or a scan
// costs a goroutine. proto.spawned counts those.

func transferReq(id, from, to, amount uint64) *kvproto.Request {
	return &kvproto.Request{ID: id, Op: kvproto.OpBatch, Ops: []kvproto.BatchOp{
		{Op: kvproto.OpAdd, Key: from, Val: -amount},
		{Op: kvproto.OpAdd, Key: to, Val: amount},
	}}
}

// shedAt returns the binary surface's deadline sheds per stage.
func shedAt(s *Server) (dequeue, gate, op uint64) {
	d := &s.deadlineShed[surfProto]
	return d[shedStageDequeue].Load(), d[shedStageGate].Load(), d[shedStageOp].Load()
}

// TestProtoGatedBurstRunsOnReader: with room at the gate a pipelined burst
// of gated Adds and transfers costs no goroutine — nothing is spawned, and
// the answers come back in request order, which only one goroutine running
// them one after the other produces — and every update still went through
// the gate, none of them waiting.
func TestProtoGatedBurstRunsOnReader(t *testing.T) {
	h := startProto(t, Config{AdmissionWidth: 64})
	for k := uint64(0); k < 8; k++ {
		if _, err := h.c.Put(k, 100); err != nil {
			t.Fatal(err)
		}
	}
	_, _, admittedBefore, _ := h.srv.gate.Stats()
	conn := dialRaw(t, h.addr)
	const n = 96
	var burst []byte
	for i := uint64(1); i <= n; i++ {
		req := transferReq(i, i%8, (i+3)%8, 1)
		if i%2 == 0 {
			req = &kvproto.Request{ID: i, Op: kvproto.OpAdd, Key: i % 8, Val: 0}
		}
		burst = append(burst, reqFrame(t, req)...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= n; i++ {
		r := readResp(t, conn)
		if r.ID != i || r.Status != kvproto.StatusOK {
			t.Fatalf("answer %d = %+v, want id %d OK: reader-run requests answer in order", i, r, i)
		}
		if i%2 == 1 && (len(r.Results) != 2 || !r.Results[0].OK || !r.Results[1].OK) {
			t.Fatalf("transfer %d answered %+v", i, r.Results)
		}
	}
	if got := h.srv.proto.spawned.Load(); got != 0 {
		t.Errorf("proto.spawned = %d with the gate never full, want 0", got)
	}
	_, inflight, admitted, waited := h.srv.gate.Stats()
	if admitted-admittedBefore != n || waited != 0 || inflight != 0 {
		t.Errorf("gate: %d admitted, %d waited, %d inflight for %d updates that never queued",
			admitted-admittedBefore, waited, inflight, n)
	}
	var sum uint64
	for k := uint64(0); k < 8; k++ {
		v, _ := h.srv.store.Get(k)
		sum += v
	}
	if sum != 800 {
		t.Errorf("the transfers did not conserve: sum = %d, want 800", sum)
	}
}

// TestProtoFullGateShedsOnce: TestProtoLoopParkedUpdateDoesNotConvoy's
// Put with a 1 ms budget. It dies queueing at the gate, on its goroutine:
// one deadline answer, one shed at stage gate, one expiry — the reader's
// try counted for nothing.
func TestProtoFullGateShedsOnce(t *testing.T) {
	h := startProto(t, Config{AdmissionWidth: 1})
	h.srv.gate.Enter()
	defer h.srv.gate.Exit()
	conn := dialRaw(t, h.addr)
	if _, err := conn.Write(reqFrame(t, &kvproto.Request{ID: 1, Op: kvproto.OpPut, Key: 8, Val: 80, TimeoutMs: 1})); err != nil {
		t.Fatal(err)
	}
	r := readResp(t, conn)
	if r.ID != 1 || r.Status != kvproto.StatusDeadlineExceeded || !strings.Contains(r.Msg, "(gate)") {
		t.Fatalf("answer = %+v, want deadline exceeded at the gate", r)
	}
	if dequeue, gate, op := shedAt(h.srv); dequeue != 0 || gate != 1 || op != 0 {
		t.Errorf("sheds (dequeue, gate, op) = (%d, %d, %d), want (0, 1, 0)", dequeue, gate, op)
	}
	if got := h.srv.gate.Expired(); got != 1 {
		t.Errorf("gate.Expired() = %d, want 1", got)
	}
	if _, _, _, waited := h.srv.gate.Stats(); waited != 1 {
		t.Errorf("admission.waited = %d, want 1", waited)
	}
	if got := h.srv.proto.spawned.Load(); got != 1 {
		t.Errorf("proto.spawned = %d, want 1", got)
	}
	if _, found := h.srv.store.Get(8); found {
		t.Error("the shed Put ran")
	}
}

// TestProtoSpentBudgetShedsOnReader: a request whose budget is already
// gone is refused where it stands — at stage gate for a point update, at
// stage op for a batch — and is not a would-park, even at a full gate:
// nobody is given a goroutine in order to be shed from it.
func TestProtoSpentBudgetShedsOnReader(t *testing.T) {
	s, _ := newTestServer(t, Config{AdmissionWidth: 1})
	s.gate.Enter()
	defer s.gate.Exit()
	var rd batchCarrier
	var resp kvproto.Response
	past := time.Now().Add(-time.Millisecond)
	for _, tc := range []struct {
		req   *kvproto.Request
		stage string
	}{
		{&kvproto.Request{ID: 1, Op: kvproto.OpAdd, Key: 1, Val: 1}, "(gate)"},
		{transferReq(2, 1, 2, 1), "(op)"},
	} {
		ack := s.execInto(surfProto, past, tc.req, &resp, &rd, true)
		if ack.wouldPark || ack.ticket != nil || resp.Status != kvproto.StatusDeadlineExceeded || !strings.Contains(resp.Msg, tc.stage) {
			t.Fatalf("%v with a spent budget: ack %+v, answer %+v, want a shed at %s", tc.req.Op, ack, resp, tc.stage)
		}
	}
	if dequeue, gate, op := shedAt(s); dequeue != 0 || gate != 1 || op != 1 {
		t.Errorf("sheds (dequeue, gate, op) = (%d, %d, %d), want (0, 1, 1)", dequeue, gate, op)
	}
	if got := s.gate.Expired(); got != 1 {
		t.Errorf("gate.Expired() = %d, want 1", got)
	}
	// With budget left, the same full gate is a would-park that counts
	// nothing anywhere.
	ack := s.execInto(surfProto, time.Now().Add(time.Hour), transferReq(3, 1, 2, 1), &resp, &rd, true)
	if _, _, _, waited := s.gate.Stats(); !ack.wouldPark || waited != 0 || s.gate.Expired() != 1 {
		t.Errorf("live budget at a full gate: ack %+v, waited %d, expired %d; want wouldPark and no counts", ack, waited, s.gate.Expired())
	}
}

// TestProtoLongRequestsStillSpawn: a batch one sub-op over the short-batch
// bound and a scan get their goroutine without the reader trying; the
// batch at the bound does not.
func TestProtoLongRequestsStillSpawn(t *testing.T) {
	h := startProto(t, Config{AdmissionWidth: 64, Snapshots: true})
	conn := dialRaw(t, h.addr)
	batch := func(id uint64, n int) *kvproto.Request {
		req := &kvproto.Request{ID: id, Op: kvproto.OpBatch}
		for i := 0; i < n; i++ {
			req.Ops = append(req.Ops, kvproto.BatchOp{Op: kvproto.OpPut, Key: uint64(i), Val: id})
		}
		return req
	}
	for _, step := range []struct {
		req     *kvproto.Request
		spawned uint64
	}{
		{batch(1, shortBatch), 0},
		{batch(2, shortBatch+1), 1},
		{&kvproto.Request{ID: 3, Op: kvproto.OpScan}, 2},
		{batch(4, shortBatch), 2}, // and the reader's scratch survived handing the long batch away
	} {
		if _, err := conn.Write(reqFrame(t, step.req)); err != nil {
			t.Fatal(err)
		}
		r := readResp(t, conn)
		if r.ID != step.req.ID || r.Status != kvproto.StatusOK || len(r.Results) != len(step.req.Ops) {
			t.Fatalf("answer to request %d = %+v", step.req.ID, r)
		}
		if got := h.srv.proto.spawned.Load(); got != step.spawned {
			t.Fatalf("proto.spawned = %d after request %d, want %d", got, step.req.ID, step.spawned)
		}
	}
	for k := uint64(0); k < shortBatch; k++ {
		if v, _ := h.srv.store.Get(k); v != 4 {
			t.Fatalf("key %d = %d after the last batch, want 4", k, v)
		}
	}
}

// TestProtoTransferAllocs pins the reader-run gated batch beside
// TestProtoDurablePutAllocs: decoding a two-op transfer, taking a gate slot,
// running it and encoding its answer allocates nothing — the request's ops,
// the store's ops and results and the response's results are all the
// connection's. (The same steps at the parent of this rule: 9, plus the
// goroutine they ran on.)
func TestProtoTransferAllocs(t *testing.T) {
	s, _ := newTestServer(t, Config{AdmissionWidth: 64})
	s.store.Put(5, 50)
	s.store.Put(6, 50)
	c := &protoConn{s: s, bw: bufio.NewWriterSize(io.Discard, protoWriteBuf)}
	payload, err := kvproto.AppendRequest(nil, transferReq(1, 5, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() { c.dispatch(payload) }); n > 0 {
		t.Fatalf("decode → gate → exec → encode of a two-op transfer: %v allocs, want 0", n)
	}
	if got := s.proto.spawned.Load(); got != 0 {
		t.Fatalf("%d of the measured transfers were spawned", got)
	}
	// AllocsPerRun warms up with one extra run.
	a, _ := s.store.Get(5)
	b, _ := s.store.Get(6)
	if moved := uint64(501); a != 50-moved || b != 50+moved {
		t.Fatalf("after 501 transfers of 1: (%d, %d), want (%d, %d)", int64(a), b, -451, 551)
	}
}

// TestProtoDurableTransferAllocs is TestProtoTransferAllocs under group
// durability, beside TestProtoDurablePutAllocs: the reader runs the
// transfer, and its answer, held for the WAL ticket, takes the reader's
// scratch along as its carrier while the reader takes a recycled one. So
// the held transfer allocates what the held Put does — the ticket — and no
// copy of its results.
func TestProtoDurableTransferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	fs := wal.NewMemFS()
	cfg := durableCfg(fs)
	cfg.AdmissionWidth = 64
	s, _ := newTestServer(t, cfg)
	waitReady(t, s)
	s.store.Put(5, 50)
	s.store.Put(6, 50)
	// As in TestProtoDurablePutAllocs, the owner does nothing when told:
	// the test drops what is held itself, recycling each carrier as an
	// encode would, with the fsync held so that every transfer is held.
	c := &protoConn{s: s, bw: bufio.NewWriterSize(io.Discard, protoWriteBuf), owner: wal.Owner{Resolved: func() {}}}
	c.hcond.L = &c.hmu
	payload, err := kvproto.AppendRequest(nil, transferReq(1, 5, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	drop := func() {
		for _, h := range c.held {
			if h.carrier == nil || len(h.resp.Results) != 2 || &h.resp.Results[0] != &h.carrier.res[0] {
				t.Fatalf("held transfer answers from %p, not from its carrier %+v", h.resp.Results, h.carrier)
			}
			h.carrier.recycle()
		}
		held += len(c.held)
		clear(c.held)
		c.held, c.unsent = c.held[:0], 0
	}
	inSync, release := fs.HoldSync()
	defer release()
	c.dispatch(payload)
	<-inSync // the flusher is parked in this transfer's fsync
	drop()
	held = 0
	n := testing.AllocsPerRun(500, func() {
		c.dispatch(payload)
		drop()
	})
	if n > 1 {
		t.Fatalf("decode → gate → exec → hold of a group-durable transfer: %v allocs, want <= 1 (the ticket)", n)
	}
	if held != 501 { // AllocsPerRun warms up with one extra run
		t.Fatalf("%d of 501 transfers were held for their ticket", held)
	}
	if got := s.proto.spawned.Load(); got != 0 {
		t.Fatalf("%d of the measured transfers were spawned", got)
	}
	s.proto.held.Store(0)
}

// BenchmarkProtoPipelinedGated is the loopback rung of the gated update
// path: depth-4 bursts of an Add and a two-op transfer, alternating, with
// the admission gate on and never full.
func BenchmarkProtoPipelinedGated(b *testing.B) {
	b.Run("depth=4", func(b *testing.B) {
		pipelinedBenchReqs(b, Config{SpaceWords: 1 << 18, AdmissionWidth: 64}, 1, 4, func(i int) *kvproto.Request {
			if i%2 == 0 {
				return &kvproto.Request{ID: uint64(i), Op: kvproto.OpAdd, Key: uint64(i * 37 % 1024), Val: 1}
			}
			return transferReq(uint64(i), uint64(i*37%1024), uint64(i*41%1024), 1)
		})
	})
}

// BenchmarkProtoGetBehindBatch measures what shortBatch trades, at the
// server, with no client in the picture: a connection's reader meets a
// batch of k Adds and then a Get, and get-ns is the time from picking up
// the batch to having answered the Get. "reader" runs the batch where it
// stands, so the Get waits for k sub-ops; "spawned" hands it to a goroutine
// (which an idle core picks up — the benchmark waits for it outside the
// timed span), so the Get waits for the hand-off.
func BenchmarkProtoGetBehindBatch(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4, 5, 6, 8, 16, 32} {
		for _, mode := range []string{"reader", "spawned"} {
			b.Run(fmt.Sprintf("ops=%d/%s", k, mode), func(b *testing.B) {
				s, _ := startBenchProto(b, Config{SpaceWords: 1 << 18, AdmissionWidth: 64})
				c := &protoConn{s: s, bw: bufio.NewWriterSize(io.Discard, protoWriteBuf), slots: make(chan struct{}, protoInflight)}
				req := &kvproto.Request{ID: 1, Op: kvproto.OpBatch}
				for i := 0; i < k; i++ {
					req.Ops = append(req.Ops, kvproto.BatchOp{Op: kvproto.OpAdd, Key: uint64(i * 37 % 1024), Val: 1})
				}
				batch, err := kvproto.AppendRequest(nil, req)
				if err != nil {
					b.Fatal(err)
				}
				get, err := kvproto.AppendRequest(nil, &kvproto.Request{ID: 2, Op: kvproto.OpGet, Key: 1000})
				if err != nil {
					b.Fatal(err)
				}
				var behind time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := time.Now()
					if err := kvproto.DecodeRequestInto(batch, &c.req); err != nil {
						b.Fatal(err)
					}
					if mode == "spawned" {
						c.spawn(time.Time{})
					} else {
						c.answer(&c.resp, s.execInto(surfProto, time.Time{}, &c.req, &c.resp, &c.scratch, true), nil)
					}
					c.dispatch(get)
					behind += time.Since(start)
					c.wg.Wait()
				}
				b.ReportMetric(float64(behind.Nanoseconds())/float64(b.N), "get-ns")
			})
		}
	}
}
