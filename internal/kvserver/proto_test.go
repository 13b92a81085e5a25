package kvserver

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"

	"tinystm/internal/kvclient"
	"tinystm/internal/kvproto"
)

// capturingListener records accepted connections so tests can sever them
// under a live client. A sndBuf above zero is the kernel send buffer every
// connection accepted from then on gets (SetWriteBuffer), so a peer that
// stops reading fills it soon.
type capturingListener struct {
	net.Listener
	mu     sync.Mutex
	conns  []net.Conn
	sndBuf int
}

func (l *capturingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		if tc, ok := c.(*net.TCPConn); ok && l.sndBuf > 0 {
			err = tc.SetWriteBuffer(l.sndBuf)
		}
		l.mu.Unlock()
	}
	return c, err
}

func (l *capturingListener) severAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// protoHarness bundles a running server, its binary listener and a
// connected client. Everything shuts down with the test.
type protoHarness struct {
	srv  *Server
	c    *kvclient.Client
	addr string
	lis  *capturingListener
}

func startProto(t *testing.T, cfg Config) *protoHarness {
	t.Helper()
	if cfg.SpaceWords == 0 {
		cfg.SpaceWords = 1 << 16
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := &capturingListener{Listener: raw}
	t.Cleanup(func() { lis.Close() })
	go srv.ServeProto(lis)
	c := kvclient.New(raw.Addr().String(), kvclient.Options{})
	t.Cleanup(c.Close)
	return &protoHarness{srv: srv, c: c, addr: raw.Addr().String(), lis: lis}
}

func TestProtoOps(t *testing.T) {
	c := startProto(t, Config{Snapshots: true}).c

	if _, found, err := c.Get(1); err != nil || found {
		t.Fatalf("Get on empty store = (%v, %v)", found, err)
	}
	if ins, err := c.Put(1, 10); err != nil || !ins {
		t.Fatalf("first Put = (%v, %v), want inserted", ins, err)
	}
	if ins, err := c.Put(1, 11); err != nil || ins {
		t.Fatalf("second Put = (%v, %v), want update", ins, err)
	}
	if val, found, err := c.Get(1); err != nil || !found || val != 11 {
		t.Fatalf("Get = (%d, %v, %v), want (11, true)", val, found, err)
	}
	if ok, err := c.CAS(1, 11, 12); err != nil || !ok {
		t.Fatalf("CAS(11->12) = (%v, %v), want ok", ok, err)
	}
	if ok, err := c.CAS(1, 11, 13); err != nil || ok {
		t.Fatalf("stale CAS = (%v, %v), want refused", ok, err)
	}
	if val, err := c.Add(1, 8); err != nil || val != 20 {
		t.Fatalf("Add = (%d, %v), want 20", val, err)
	}
	if val, err := c.Add(7, 5); err != nil || val != 5 {
		t.Fatalf("Add on missing key = (%d, %v), want 5", val, err)
	}
	if found, err := c.Delete(7); err != nil || !found {
		t.Fatalf("Delete = (%v, %v), want found", found, err)
	}
	if found, err := c.Delete(7); err != nil || found {
		t.Fatalf("second Delete = (%v, %v), want missing", found, err)
	}

	res, err := c.Batch([]kvproto.BatchOp{
		{Op: kvproto.OpPut, Key: 2, Val: 100},
		{Op: kvproto.OpGet, Key: 1},
		{Op: kvproto.OpAdd, Key: 2, Val: 1},
		{Op: kvproto.OpCAS, Key: 2, Old: 101, Val: 102},
		{Op: kvproto.OpDelete, Key: 99},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []kvproto.BatchResult{
		{OK: true},
		{Val: 20, Found: true},
		{Val: 101, OK: true},
		{OK: true},
		{},
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("batch result %d = %+v, want %+v", i, res[i], want[i])
		}
	}

	pairs, total, snapshot, err := c.Scan(0)
	if err != nil || total != 2 || len(pairs) != 2 {
		t.Fatalf("Scan = (%d pairs, total %d, %v)", len(pairs), total, err)
	}
	if !snapshot {
		t.Fatal("Scan did not run as a snapshot on a Snapshots server")
	}
	pairs, _, _, err = c.Scan(1)
	if err != nil || len(pairs) != 1 {
		t.Fatalf("limited Scan = (%d pairs, %v), want 1", len(pairs), err)
	}

	if _, err := c.Batch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// TestProtoPipelining floods one connection from many goroutines and
// checks every op lands: out-of-order completion with id matching is the
// protocol's core claim.
func TestProtoPipelining(t *testing.T) {
	h := startProto(t, Config{Snapshots: true})
	srv, c := h.srv, h.c

	const workers, opsEach = 16, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				key := uint64(w)<<32 | uint64(i)
				if _, err := c.Add(key, 1); err != nil {
					errs <- err
					return
				}
				val, found, err := c.Get(key)
				if err != nil || !found || val != 1 {
					errs <- errors.New("read-your-write failed over the pipeline")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if n := srv.Store().Len(); n != workers*opsEach {
		t.Fatalf("store has %d keys, want %d", n, workers*opsEach)
	}
	if got := srv.proto.errOps.Load(); got != 0 {
		t.Fatalf("%d protocol-level errors during clean pipelined load", got)
	}
}

// TestProtoAdmissionGate checks update ops flow through the gate: with
// width 1 the ops all land (the gate bounds concurrency, never refuses)
// and the waited counter shows queueing happened.
func TestProtoAdmissionGate(t *testing.T) {
	h := startProto(t, Config{Snapshots: true, AdmissionWidth: 1})
	srv, c := h.srv, h.c

	const workers, opsEach = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				if _, err := c.Add(1, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if val, _, err := c.Get(1); err != nil || val != workers*opsEach {
		t.Fatalf("counter = (%d, %v), want %d", val, err, workers*opsEach)
	}
	width, _, admitted, _ := srv.gate.Stats()
	if width != 1 || admitted != workers*opsEach {
		t.Fatalf("gate saw (width %d, admitted %d), want (1, %d)", width, admitted, workers*opsEach)
	}
}

// TestProtoMalformedPayload sends garbage in a valid frame: the server
// answers StatusError with the echoed id, then drops the connection.
func TestProtoMalformedPayload(t *testing.T) {
	h := startProto(t, Config{})
	if _, err := h.c.Put(1, 1); err != nil {
		t.Fatal(err)
	}

	// Raw connection: a well-framed payload with an invalid op byte.
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := binary.LittleEndian.AppendUint64(nil, 77)
	payload = append(payload, 0xEE)
	frame, err := kvproto.AppendFrame(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	got, err := kvproto.ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := kvproto.DecodeResponse(got)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 77 || resp.Status != kvproto.StatusError {
		t.Fatalf("malformed payload answered (id %d, %v), want (77, error)", resp.ID, resp.Status)
	}
	// The connection must be closed after the error.
	if _, err := kvproto.ReadFrame(conn, nil); err == nil {
		t.Fatal("connection survived a malformed payload")
	}
	if h.srv.proto.badFrames.Load() == 0 {
		t.Fatal("bad frame not counted")
	}
}

// TestProtoFrameDesync sends plain HTTP at the binary port: the server
// must drop the connection without answering.
func TestProtoFrameDesync(t *testing.T) {
	h := startProto(t, Config{})
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /kv/1 HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server must drop the connection without answering a byte; the
	// close may surface as EOF or a reset (unread request bytes), but
	// never as data.
	n, err := conn.Read(make([]byte, 1))
	if err == nil || n > 0 {
		t.Fatalf("server answered an HTTP request on the binary port (n=%d, err=%v)", n, err)
	}
}

// TestProtoClientRedial kills the connection under the client and checks
// the next call dials fresh and succeeds.
func TestProtoClientRedial(t *testing.T) {
	h := startProto(t, Config{})
	c := h.c
	if _, err := c.Put(5, 50); err != nil {
		t.Fatal(err)
	}
	// Nuke every live server-side connection; in-flight is empty so the
	// client only notices on its next call, which redials.
	h.lis.severAll()
	deadline := 0
	for {
		if _, _, err := c.Get(5); err == nil {
			break
		}
		if deadline++; deadline > 100 {
			t.Fatal("client never recovered from a dropped connection")
		}
	}
	if val, found, err := c.Get(5); err != nil || !found || val != 50 {
		t.Fatalf("post-redial Get = (%d, %v, %v), want (50, true)", val, found, err)
	}
}
