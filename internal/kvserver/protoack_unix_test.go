//go:build unix

package kvserver

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"tinystm/internal/kvproto"
	"tinystm/internal/wal"
)

// TestProtoAckSlowReaderDoesNotStallLog: a client that pipelines durable
// batches and stops reading fills its socket, and the flusher's write to
// it comes up short. That connection's remainder goes to a goroutine of
// its own; the flusher, and with it every other connection's
// acknowledgements, carries on. Once the slow client reads, it gets each
// of its answers exactly once.
func TestProtoAckSlowReaderDoesNotStallLog(t *testing.T) {
	fs := wal.NewMemFS()
	h := startDurableProto(t, durableCfg(fs))
	h.lis.mu.Lock()
	h.lis.sndBuf = 4 << 10
	h.lis.mu.Unlock()

	// The receive buffer is set before the handshake, so the window the
	// client advertises is small from the start and never has to shrink.
	d := net.Dialer{Control: func(_, _ string, rc syscall.RawConn) error {
		var err error
		if cerr := rc.Control(func(fd uintptr) {
			err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4<<10)
		}); cerr != nil {
			return cerr
		}
		return err
	}}
	slow, err := d.DialContext(context.Background(), "tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { slow.Close() })

	// 150 batches of 32 Puts: ~46 KB of answers, within the 64 KB write
	// buffer and well beyond what the two socket buffers take. With the
	// fsync held every ticket is claimed before any resolves, so all of
	// them are the flusher's to write.
	const batches, perBatch = 150, 32
	inSync, release := fs.HoldSync()
	defer release()
	var burst []byte
	for i := range batches {
		ops := make([]kvproto.BatchOp, perBatch)
		for j := range ops {
			ops[j] = kvproto.BatchOp{Op: kvproto.OpPut, Key: uint64((i*perBatch + j) % 1024), Val: 1}
		}
		burst = append(burst, reqFrame(t, &kvproto.Request{ID: uint64(i + 1), Op: kvproto.OpBatch, Ops: ops})...)
	}
	if _, err := slow.Write(burst); err != nil {
		t.Fatal(err)
	}
	<-inSync
	waitHeld(t, h.srv, batches)
	release()
	// Its socket full, the slow connection's answers stop going out: what
	// it has unsent stays put.
	last, still := int64(-1), 0
	waitFor(t, "the slow connection to stall", func() bool {
		n := h.srv.proto.held.Load()
		if n > 0 && n == last {
			still++
		} else {
			still = 0
		}
		last = n
		return still == 20
	})

	other := dialRaw(t, h.addr)
	start := time.Now()
	for i := uint64(1); i <= 10; i++ {
		if _, err := other.Write(putFrame(t, i, 2000+i, i)); err != nil {
			t.Fatal(err)
		}
		if r := readResp(t, other); r.ID != i || r.Status != kvproto.StatusOK {
			t.Fatalf("other connection's Put %d answered %+v", i, r)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("10 durable Puts beside a stalled reader took %v", d)
	}
	waitFor(t, "a flusher write to come up short", func() bool { return h.srv.proto.handoffs.Load() > 0 })

	br := bufio.NewReader(slow)
	seen := make([]bool, batches+1)
	var buf []byte
	for range batches {
		slow.SetReadDeadline(time.Now().Add(5 * time.Second))
		if buf, err = kvproto.ReadFrame(br, buf); err != nil {
			t.Fatalf("slow reader: %v", err)
		}
		r, err := kvproto.DecodeResponse(buf)
		if err != nil || r.Status != kvproto.StatusOK || r.ID == 0 || r.ID > batches || seen[r.ID] || len(r.Results) != perBatch {
			t.Fatalf("slow reader got %+v (%v)", r, err)
		}
		seen[r.ID] = true
	}
	waitHeld(t, h.srv, 0)
}

// TestProtoDeliverAllocs: a delivery — the flusher settling a connection's
// resolved answer and writing it to the socket in one write(2) attempt —
// allocates nothing. The connection is a real loopback socket, so the
// attempt is the raw write, not a hand-off.
func TestProtoDeliverAllocs(t *testing.T) {
	fs := wal.NewMemFS()
	s, _ := newTestServer(t, durableCfg(fs))
	waitReady(t, s)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := dialRaw(t, lis.Addr().String())
	conn, err := lis.Accept()
	lis.Close()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	// The owner does nothing when told: the test delivers itself.
	c := &protoConn{s: s, bw: bufio.NewWriterSize(conn, protoWriteBuf), owner: wal.Owner{Resolved: func() {}}}
	c.raw.init(conn)
	c.hcond.L = &c.hmu
	payload, err := kvproto.AppendRequest(nil, &kvproto.Request{ID: 1, Op: kvproto.OpPut, Key: 5, Val: 51})
	if err != nil {
		t.Fatal(err)
	}
	inSync, release := fs.HoldSync()
	c.dispatch(payload)
	<-inSync // the flusher is parked in this Put's fsync: its answer is held
	release()
	if len(c.held) != 1 {
		t.Fatalf("%d answers held, want the Put's", len(c.held))
	}
	h := c.held[0]
	if err := h.ack.ticket.Wait(); err != nil {
		t.Fatal(err)
	}
	want, err := kvproto.AppendResponseFrame(nil, &h.resp)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	c.held, c.unsent = c.held[:0], 0
	s.proto.held.Store(0)
	deliver := func() {
		c.held = append(c.held, h)
		c.unsent++
		s.proto.held.Add(1)
		c.deliver()
		if _, err := io.ReadFull(client, got); err != nil {
			t.Fatal(err)
		}
	}
	deliver()
	if n := testing.AllocsPerRun(200, deliver); n != 0 {
		t.Errorf("settle → encode → write of one resolved answer: %v allocs, want 0", n)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("client read %x, want %x", got, want)
	}
	if n := s.proto.handoffs.Load(); n != 0 {
		t.Fatalf("%d deliveries handed off: the measured path is not the raw write", n)
	}
}
