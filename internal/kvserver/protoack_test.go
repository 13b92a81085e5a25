package kvserver

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tinystm/internal/kvproto"
	"tinystm/internal/wal"
)

// Tests of the binary connection's acknowledgement rule (proto.go): under
// group durability an update's answer is held until its WAL ticket
// resolves, and then written by the flusher that resolved it — or by its
// holder, if the ticket resolved before it could be claimed. The disk is a
// wal.MemFS whose fsync the test holds or fails, so "not yet durable" lasts
// exactly as long as the test wants.

// startDurableProto is startProto on a group-durable server that has
// finished recovery. The harness client's connection is up on return, so
// proto.conns and the goroutine count have a stable baseline.
func startDurableProto(t *testing.T, cfg Config) *protoHarness {
	t.Helper()
	h := startProto(t, cfg)
	waitReady(t, h.srv)
	if _, err := h.c.Put(1000, 1); err != nil {
		t.Fatal(err)
	}
	return h
}

func putFrame(t testing.TB, id, key, val uint64) []byte {
	return reqFrame(t, &kvproto.Request{ID: id, Op: kvproto.OpPut, Key: key, Val: val})
}

// expectSilence asserts that nothing arrives on conn for a little while.
// "Not answered" has no event to wait on; the callers first wait for the
// state that guarantees it (the responses are counted as held) and use
// this only to catch an answer that leaked out anyway.
func expectSilence(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	var b [1]byte
	if n, err := conn.Read(b[:]); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read %d bytes (err %v) while every outstanding answer should be held", n, err)
	}
}

func waitHeld(t *testing.T, s *Server, n int64) {
	t.Helper()
	waitFor(t, "held responses", func() bool { return s.proto.held.Load() == n })
}

// TestProtoAckNeverEarlyNeverConvoyed: Put, Put, Get pipelined on one
// connection while the fsync is held. The Get is answered — and sees the
// first Put, committed but not yet durable — neither Put is, and neither
// has been counted as a finished request; once the disk lets go both Puts
// arrive, their latency covers the wait, and the store has them.
func TestProtoAckNeverEarlyNeverConvoyed(t *testing.T) {
	fs := wal.NewMemFS()
	h := startDurableProto(t, durableCfg(fs))
	putLat := h.srv.met.req[surfProto][kvproto.OpPut-kvproto.OpGet]
	putsBefore, acksBefore := putLat.Snapshot(), h.srv.met.ackWaitNs.Snapshot()

	inSync, release := fs.HoldSync()
	defer release()
	conn := dialRaw(t, h.addr)
	burst := append(putFrame(t, 1, 7, 70), putFrame(t, 2, 8, 80)...)
	burst = append(burst, reqFrame(t, &kvproto.Request{ID: 3, Op: kvproto.OpGet, Key: 7})...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	if r := readResp(t, conn); r.ID != 3 || r.Status != kvproto.StatusOK || !r.Found || r.Val != 70 {
		t.Fatalf("first answer = %+v, want the Get (id 3) seeing the committed Put", r)
	}
	<-inSync
	waitHeld(t, h.srv, 2)
	expectSilence(t, conn)
	if n := putLat.Snapshot().Count - putsBefore.Count; n != 0 {
		t.Fatalf("%d Put latencies recorded before any Put was released", n)
	}
	heldFor := 20 * time.Millisecond
	time.Sleep(heldFor) // the wait the released spans must cover

	release()
	seen := map[uint64]bool{}
	for range 2 {
		r := readResp(t, conn)
		if r.Status != kvproto.StatusOK || !r.OK || seen[r.ID] || (r.ID != 1 && r.ID != 2) {
			t.Fatalf("released answer = %+v (seen before: %v)", r, seen[r.ID])
		}
		seen[r.ID] = true
	}
	waitHeld(t, h.srv, 0)
	for key, want := range map[uint64]uint64{7: 70, 8: 80} {
		if v, found := h.srv.store.Get(key); !found || v != want {
			t.Errorf("store.Get(%d) = (%d, %v), want %d", key, v, found, want)
		}
	}
	puts, acks := putLat.Snapshot(), h.srv.met.ackWaitNs.Snapshot()
	if n, m := puts.Count-putsBefore.Count, acks.Count-acksBefore.Count; n != 2 || m != 2 {
		t.Fatalf("recorded %d Put latencies and %d ack waits for 2 released Puts", n, m)
	}
	// CumulativeLE counts only the buckets wholly at or under its bound,
	// so a span recorded under heldFor here is one that really was.
	under := uint64(heldFor) - 1
	if n := puts.CumulativeLE(under) - putsBefore.CumulativeLE(under); n != 0 {
		t.Errorf("%d released Puts recorded under %v: the span lost its ticket wait", n, heldFor)
	}
	if n := acks.CumulativeLE(under) - acksBefore.CumulativeLE(under); n != 0 {
		t.Errorf("%d ack waits recorded under %v, held for at least that", n, heldFor)
	}
}

// TestProtoAckFailedTicket: the fsync the held updates wait for fails.
// Every one of them answers StatusUnavailable with the durability message,
// the server is degraded, and the listener's error count is what the
// client saw.
func TestProtoAckFailedTicket(t *testing.T) {
	fs := wal.NewMemFS()
	h := startDurableProto(t, durableCfg(fs))
	errsBefore := h.srv.proto.errOps.Load()

	inSync, release := fs.HoldSync()
	defer release()
	fs.FailSyncAt(1)
	conn := dialRaw(t, h.addr)
	const n = 3
	var burst []byte
	for i := uint64(1); i <= n; i++ {
		burst = append(burst, putFrame(t, i, i, i)...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	<-inSync
	waitHeld(t, h.srv, n)
	release()
	for range n {
		r := readResp(t, conn)
		if r.Status != kvproto.StatusUnavailable || !strings.Contains(r.Msg, "commit not durable") ||
			!strings.Contains(r.Msg, wal.ErrInjectedSync.Error()) {
			t.Fatalf("answer to a Put whose fsync failed = %+v, want unavailable with the durability message", r)
		}
	}
	waitFor(t, "the server to degrade", func() bool { return h.srv.State() == "degraded" })
	if got := h.srv.proto.errOps.Load() - errsBefore; got != n {
		t.Errorf("err_ops moved by %d, the client saw %d errors", got, n)
	}
	waitHeld(t, h.srv, 0)
}

// TestProtoAckBound: one burst of a Get and more Puts than the held FIFO
// takes, with the fsync held. The reader holds the Get's answer back for
// the rest of the burst — until the FIFO is full: it must give up that
// hold before it waits for room, so the Get is answered while the reader
// is stuck. Everything else follows once the disk lets go.
func TestProtoAckBound(t *testing.T) {
	fs := wal.NewMemFS()
	cfg := durableCfg(fs)
	cfg.SpaceWords = 1 << 20
	h := startDurableProto(t, cfg)
	inSync, release := fs.HoldSync()
	defer release()
	conn := dialRaw(t, h.addr)
	const puts = protoInflight + 1
	burst := reqFrame(t, &kvproto.Request{ID: 1, Op: kvproto.OpGet, Key: 1000})
	for i := uint64(0); i < puts; i++ {
		burst = append(burst, putFrame(t, 2+i, i, i)...)
	}
	burst = append(burst, reqFrame(t, &kvproto.Request{ID: 2 + puts, Op: kvproto.OpGet, Key: 1000})...)
	if len(burst) > protoReadBuf {
		t.Fatalf("burst of %d bytes does not fit the read buffer: the reader would not hold its flush across it", len(burst))
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	if r := readResp(t, conn); r.ID != 1 || !r.Found {
		t.Fatalf("first answer = %+v, want the leading Get", r)
	}
	<-inSync
	waitHeld(t, h.srv, protoInflight)
	expectSilence(t, conn) // the last Put and the trailing Get sit behind the full FIFO
	release()
	seen := map[uint64]bool{}
	for range puts + 1 {
		r := readResp(t, conn)
		if r.Status != kvproto.StatusOK || seen[r.ID] || r.ID < 2 || r.ID > 2+puts {
			t.Fatalf("answer %+v (seen before: %v)", r, seen[r.ID])
		}
		seen[r.ID] = true
	}
	waitHeld(t, h.srv, 0)
}

// TestProtoAckTeardown: the peer vanishes with acknowledgements held. The
// connection stays accounted open until the flusher has written them —
// into the dead socket, without blocking — and closes only once nothing of
// it is left unsent; then every goroutine it started is gone, and the
// updates themselves are committed and durable.
func TestProtoAckTeardown(t *testing.T) {
	fs := wal.NewMemFS()
	h := startDurableProto(t, durableCfg(fs))
	goroutines := runtime.NumGoroutine()
	inSync, release := fs.HoldSync()
	defer release()
	conn := dialRaw(t, h.addr)
	if _, err := conn.Write(append(putFrame(t, 1, 7, 70), putFrame(t, 2, 8, 80)...)); err != nil {
		t.Fatal(err)
	}
	<-inSync
	waitHeld(t, h.srv, 2)
	conn.Close()
	// Nothing announces that the reader has seen the EOF; give it the time
	// to, so the check below is of a connection that only its held answers
	// keep.
	time.Sleep(20 * time.Millisecond)
	if n := h.srv.proto.conns.Load(); n != 2 {
		t.Fatalf("conns = %d with acknowledgements still held, want 2 (harness client + this one)", n)
	}
	release()
	waitFor(t, "the connection to close", func() bool { return h.srv.proto.conns.Load() == 1 })
	if n := h.srv.proto.held.Load(); n != 0 {
		t.Fatalf("connection closed with %d answers still unwritten", n)
	}
	if v, found, err := h.c.Get(8); err != nil || !found || v != 80 {
		t.Fatalf("Get(8) = (%d, %v, %v) after the peer left", v, found, err)
	}
	waitFor(t, "the connection's goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
}

// TestProtoAckServerClose: Server.Close with acknowledgements held
// terminates — closing the log resolves every ticket one way or the other —
// the held updates are answered, not dropped, and once the peer leaves no
// goroutine of the server or the connection is left behind.
func TestProtoAckServerClose(t *testing.T) {
	fs := wal.NewMemFS()
	h := startDurableProto(t, durableCfg(fs))
	goroutines := runtime.NumGoroutine()
	inSync, release := fs.HoldSync()
	defer release()
	conn := dialRaw(t, h.addr)
	if _, err := conn.Write(append(putFrame(t, 1, 7, 70), putFrame(t, 2, 8, 80)...)); err != nil {
		t.Fatal(err)
	}
	<-inSync
	waitHeld(t, h.srv, 2)
	closed := make(chan struct{})
	go func() { defer close(closed); h.srv.Close() }()
	release() // the final drain needs the disk back
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close did not return with acknowledgements held")
	}
	for range 2 {
		// Durable before the log closed, or refused because it closed first.
		if r := readResp(t, conn); r.Status != kvproto.StatusOK && r.Status != kvproto.StatusUnavailable {
			t.Fatalf("answer across Close = %+v", r)
		}
	}
	waitHeld(t, h.srv, 0)
	conn.Close()
	waitFor(t, "the server's goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
}

// TestProtoAckGateAndGroup: the admission slot goes back when the
// transaction commits, not when it is durable. With a gate one wide and
// the fsync held, a second update commits while the first still waits for
// its ticket — and so do two transfers, which like the Puts ran on the
// reader (nothing was spawned), are held on the FIFO each in the reader
// scratch it ran in, taken along as its carrier, and are written once the
// fsync lets go.
func TestProtoAckGateAndGroup(t *testing.T) {
	fs := wal.NewMemFS()
	cfg := durableCfg(fs)
	cfg.AdmissionWidth = 1
	h := startDurableProto(t, cfg)
	inSync, release := fs.HoldSync()
	defer release()
	conn := dialRaw(t, h.addr)
	burst := append(putFrame(t, 1, 7, 70), putFrame(t, 2, 8, 80)...)
	burst = append(burst, reqFrame(t, transferReq(3, 7, 8, 5))...)
	burst = append(burst, reqFrame(t, transferReq(4, 8, 9, 1))...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	<-inSync
	waitHeld(t, h.srv, 4) // all committed; none durable
	if _, inflight, _, _ := h.srv.gate.Stats(); inflight != 0 {
		t.Fatalf("gate inflight = %d with every update only waiting for the disk", inflight)
	}
	if got := h.srv.proto.spawned.Load(); got != 0 {
		t.Fatalf("proto.spawned = %d: an update that found room at the gate left the reader", got)
	}
	for key, want := range map[uint64]uint64{7: 65, 8: 84, 9: 1} {
		if v, found := h.srv.store.Get(key); !found || v != want {
			t.Errorf("store.Get(%d) = (%d, %v) while held, want %d", key, v, found, want)
		}
	}
	expectSilence(t, conn)
	release()
	// Each transfer's answer is its own: the second ran in the reader's
	// new scratch while the first was held in the old one.
	wantResults := map[uint64][2]uint64{3: {65, 85}, 4: {84, 1}}
	for range 4 {
		r := readResp(t, conn)
		switch want, transfer := wantResults[r.ID]; {
		case r.Status != kvproto.StatusOK:
			t.Fatalf("released answer = %+v", r)
		case !transfer:
			if !r.OK {
				t.Fatalf("released Put = %+v", r)
			}
		case len(r.Results) != 2 || r.Results[0].Val != want[0] || r.Results[1].Val != want[1]:
			t.Fatalf("released transfer %d = %+v, want values %v", r.ID, r.Results, want)
		}
	}
}

// TestProtoHeldBatchAnswersAfterRecycle pins the carrier rule: a carrier
// goes back to the pool when its answer is encoded, not before. Two
// connections pipeline durable batches, long (spawned, in a pooled
// carrier) and short (on the reader, whose scratch the held answer takes
// along), and with the fsync held every one of them is held. Then all-Get
// batches of both lengths stream through the same connections: answered
// at once, they take carriers from the pool and the readers' scratch,
// overwrite the slots and recycle them. After the release every held
// answer must still be its own batch's. Recycling a held answer's carrier
// early, or leaving a held short batch in the reader's scratch, hands its
// slots to a Get batch that overwrites them.
func TestProtoHeldBatchAnswersAfterRecycle(t *testing.T) {
	fs := wal.NewReservingMemFS()
	h := startDurableProto(t, durableCfg(fs))
	const conns, rounds, reads, long, short = 2, 8, 64, shortBatch + 4, shortBatch - 1
	const addBase, readBase, readKeys = 1 << 20, 1 << 30, 16
	for k := uint64(0); k < readKeys; k++ {
		h.srv.store.Put(readBase+k, 7000+k)
	}
	want := map[uint64][]kvproto.BatchResult{}
	// adds is a durable batch of n Adds to keys no other op touches (the
	// harness wrote key 1000): each answers with its own delta.
	adds := func(id uint64, n int) []byte {
		req := &kvproto.Request{ID: id, Op: kvproto.OpBatch}
		for i := range n {
			d := id*100 + uint64(i) + 1
			req.Ops = append(req.Ops, kvproto.BatchOp{Op: kvproto.OpAdd, Key: addBase + id*100 + uint64(i), Val: d})
			want[id] = append(want[id], kvproto.BatchResult{Val: d, OK: true})
		}
		return reqFrame(t, req)
	}
	gets := func(id uint64, n int) []byte {
		req := &kvproto.Request{ID: id, Op: kvproto.OpBatch}
		for i := range n {
			k := (id + uint64(i)) % readKeys
			req.Ops = append(req.Ops, kvproto.BatchOp{Op: kvproto.OpGet, Key: readBase + k})
			want[id] = append(want[id], kvproto.BatchResult{Val: 7000 + k, Found: true})
		}
		return reqFrame(t, req)
	}
	check := func(r *kvproto.Response) {
		t.Helper()
		if r.Status != kvproto.StatusOK || !slices.Equal(r.Results, want[r.ID]) {
			t.Fatalf("answer %d = %v %+v, want %+v", r.ID, r.Status, r.Results, want[r.ID])
		}
		delete(want, r.ID)
	}
	inSync, release := fs.HoldSync()
	defer release()
	cs := make([]net.Conn, conns)
	id := uint64(0)
	for c := range cs {
		cs[c] = dialRaw(t, h.addr)
		var burst []byte
		for range rounds {
			burst = append(burst, adds(id+1, long)...)
			burst = append(burst, adds(id+2, short)...)
			id += 2
		}
		if _, err := cs[c].Write(burst); err != nil {
			t.Fatal(err)
		}
	}
	<-inSync
	waitHeld(t, h.srv, 2*conns*rounds)
	durable := id
	for _, conn := range cs {
		var burst []byte
		for range reads {
			burst = append(burst, gets(id+1, long)...)
			burst = append(burst, gets(id+2, short)...)
			id += 2
		}
		if _, err := conn.Write(burst); err != nil {
			t.Fatal(err)
		}
		for range 2 * reads {
			r := readResp(t, conn)
			if r.ID <= durable {
				t.Fatalf("durable batch %d answered before its fsync", r.ID)
			}
			check(r)
		}
	}
	release()
	for _, conn := range cs {
		for range 2 * rounds {
			check(readResp(t, conn))
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d batches never answered", len(want))
	}
}

// TestProtoAckResolvedBeforeClaim: a ticket that resolved before its
// holder could claim it is nobody's to tell — the flusher has passed it —
// so the holder sends the answer itself, at once, and nothing stays held.
func TestProtoAckResolvedBeforeClaim(t *testing.T) {
	fs := wal.NewMemFS()
	s, _ := newTestServer(t, durableCfg(fs))
	waitReady(t, s)
	var out bytes.Buffer
	c := &protoConn{s: s, bw: bufio.NewWriterSize(&out, protoWriteBuf)}
	c.hcond.L = &c.hmu
	c.owner.Resolved = c.deliver
	req := kvproto.Request{ID: 9, Op: kvproto.OpPut, Key: 5, Val: 51}
	var resp kvproto.Response
	ack := s.execInto(surfProto, time.Time{}, &req, &resp, &c.scratch, true)
	if ack.ticket == nil {
		t.Fatal("a group-durable Put came back without a ticket")
	}
	if err := ack.ticket.Wait(); err != nil {
		t.Fatal(err)
	}
	heldBefore := s.proto.held.Load()
	c.answer(&resp, ack, nil)
	if len(c.held) != 0 || c.unsent != 0 || s.proto.held.Load() != heldBefore {
		t.Fatalf("after answering a resolved ticket: %d held, %d unsent, proto.held %d → %d",
			len(c.held), c.unsent, heldBefore, s.proto.held.Load())
	}
	payload, err := kvproto.ReadFrame(&out, nil)
	if err != nil {
		t.Fatalf("the holder sent nothing: %v", err)
	}
	if r, err := kvproto.DecodeResponse(payload); err != nil || r.ID != 9 || r.Status != kvproto.StatusOK || !r.OK {
		t.Fatalf("answer = %+v (%v), want id 9 OK", r, err)
	}
}

// TestProtoDurablePutAllocs pins the reader-run durable path: decoding a
// Put, committing it with its redo record staged, and holding the answer
// with its ticket claimed allocates once — the WAL ticket.
func TestProtoDurablePutAllocs(t *testing.T) {
	fs := wal.NewMemFS()
	s, _ := newTestServer(t, durableCfg(fs))
	waitReady(t, s)
	s.store.Put(5, 50)
	// The owner does nothing when told: the test drops what is held
	// itself, and the measured goroutine is the only one allocating. The
	// fsync is held, so no ticket resolves during the measurement — every
	// claim lands and every Put is held.
	c := &protoConn{s: s, bw: bufio.NewWriterSize(io.Discard, protoWriteBuf), owner: wal.Owner{Resolved: func() {}}}
	c.hcond.L = &c.hmu
	payload, err := kvproto.AppendRequest(nil, &kvproto.Request{ID: 1, Op: kvproto.OpPut, Key: 5, Val: 51})
	if err != nil {
		t.Fatal(err)
	}
	inSync, release := fs.HoldSync()
	defer release()
	c.dispatch(payload)
	<-inSync // the flusher is parked in this Put's fsync
	c.held, c.unsent = c.held[:0], 0
	held := 0
	n := testing.AllocsPerRun(500, func() {
		c.dispatch(payload)
		held += len(c.held)
		c.held, c.unsent = c.held[:0], 0
	})
	if n > 1 {
		t.Fatalf("decode → execInto → hold of a group-durable Put: %v allocs, want <= 1", n)
	}
	if held != 501 { // AllocsPerRun warms up with one extra run
		t.Fatalf("%d of 501 Puts were held for their ticket", held)
	}
	s.proto.held.Store(0)
}
