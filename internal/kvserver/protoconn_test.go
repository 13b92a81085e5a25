package kvserver

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"tinystm/internal/kvproto"
	"tinystm/internal/wal"
)

// Tests of the connection loop itself (proto.go): which goroutine runs an
// op, when a flush happens, and what teardown waits for. They speak the
// protocol over a raw socket, because kvclient would hide exactly the
// byte-level timing they are about.

func dialRaw(t testing.TB, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func reqFrame(t testing.TB, req *kvproto.Request) []byte {
	t.Helper()
	payload, err := kvproto.AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := kvproto.AppendFrame(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// readResp reads one response, failing the test if none arrives in time:
// a response the loop forgot to flush shows up here as a timeout.
func readResp(t testing.TB, conn net.Conn) *kvproto.Response {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := kvproto.ReadFrame(conn, nil)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	resp, err := kvproto.DecodeResponse(payload)
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp
}

// waitFor polls cond: the server-side effects these tests wait on (a
// connection's teardown, goroutines exiting) have no event to block on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestProtoLoopParkedUpdateDoesNotConvoy: with the gate's only slot taken,
// a Put pipelined before a Get would park — so the reader, having tried the
// gate, gives the Put a goroutine to queue on and answers the Get BEHIND it
// first. The Put answers once the slot frees: spawned once, counted as one
// wait (the reader's try is not one) and as one request.
func TestProtoLoopParkedUpdateDoesNotConvoy(t *testing.T) {
	h := startProto(t, Config{AdmissionWidth: 1})
	if _, err := h.c.Put(7, 70); err != nil {
		t.Fatal(err)
	}
	h.srv.gate.Enter()
	conn := dialRaw(t, h.addr)
	burst := append(reqFrame(t, &kvproto.Request{ID: 1, Op: kvproto.OpPut, Key: 8, Val: 80}),
		reqFrame(t, &kvproto.Request{ID: 2, Op: kvproto.OpGet, Key: 7})...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	if r := readResp(t, conn); r.ID != 2 || r.Status != kvproto.StatusOK || !r.Found || r.Val != 70 {
		t.Fatalf("first answer = %+v, want the Get (id 2, found 70)", r)
	}
	waited := func() uint64 { _, _, _, w := h.srv.gate.Stats(); return w }
	waitFor(t, "the Put to queue at the gate", func() bool { return waited() == 1 })
	h.srv.gate.Exit()
	if r := readResp(t, conn); r.ID != 1 || r.Status != kvproto.StatusOK || !r.OK {
		t.Fatalf("second answer = %+v, want the released Put (id 1, inserted)", r)
	}
	if spawned, ops := h.srv.proto.spawned.Load(), h.srv.proto.ops.Load(); spawned != 1 || waited() != 1 || ops != 3 {
		t.Errorf("spawned %d, admission.waited %d, proto.ops %d; want 1, 1 and 3 (the harness Put, this Put, this Get)",
			spawned, waited(), ops)
	}
}

// TestProtoLoopPartialFrame: with one and a half frames on the wire the
// first request is answered at once — the reader gives up its hold on the
// flush before blocking on the rest of the second.
func TestProtoLoopPartialFrame(t *testing.T) {
	h := startProto(t, Config{})
	conn := dialRaw(t, h.addr)
	first := reqFrame(t, &kvproto.Request{ID: 1, Op: kvproto.OpPut, Key: 3, Val: 30})
	second := reqFrame(t, &kvproto.Request{ID: 2, Op: kvproto.OpGet, Key: 3})
	half := len(second) / 2
	if _, err := conn.Write(append(first, second[:half]...)); err != nil {
		t.Fatal(err)
	}
	if r := readResp(t, conn); r.ID != 1 || r.Status != kvproto.StatusOK {
		t.Fatalf("answer to the complete frame = %+v", r)
	}
	if _, err := conn.Write(second[half:]); err != nil {
		t.Fatal(err)
	}
	if r := readResp(t, conn); r.ID != 2 || !r.Found || r.Val != 30 {
		t.Fatalf("answer to the completed frame = %+v", r)
	}
}

// TestProtoLoopFragmentedBurst delivers a burst one byte per write: every
// request is answered, once, in a valid frame.
func TestProtoLoopFragmentedBurst(t *testing.T) {
	h := startProto(t, Config{Snapshots: true})
	conn := dialRaw(t, h.addr)
	reqs := []*kvproto.Request{
		{ID: 1, Op: kvproto.OpPut, Key: 1, Val: 10},
		{ID: 2, Op: kvproto.OpGet, Key: 1},
		{ID: 3, Op: kvproto.OpBatch, Ops: []kvproto.BatchOp{{Op: kvproto.OpAdd, Key: 2, Val: 5}}},
		{ID: 4, Op: kvproto.OpDelete, Key: 3},
		{ID: 5, Op: kvproto.OpScan},
		{ID: 6, Op: kvproto.OpCAS, Key: 1, Old: 10, Val: 11},
	}
	var burst []byte
	for _, r := range reqs {
		burst = append(burst, reqFrame(t, r)...)
	}
	go func() {
		for i := range burst {
			if _, err := conn.Write(burst[i : i+1]); err != nil {
				return // the reads below fail the test
			}
		}
	}()
	seen := map[uint64]bool{}
	for range reqs {
		r := readResp(t, conn)
		if r.Status != kvproto.StatusOK || seen[r.ID] || r.ID < 1 || r.ID > uint64(len(reqs)) {
			t.Fatalf("answer %+v (seen before: %v)", r, seen[r.ID])
		}
		seen[r.ID] = true
	}
}

// TestProtoLoopCombiningStress runs two connections of mixed reader-run
// and goroutine-run ops, written in bursts of every size while the answers
// are read concurrently: every id is answered exactly once, every frame
// decodes, and the listener's accounting matches what the clients saw.
func TestProtoLoopCombiningStress(t *testing.T) {
	h := startProto(t, Config{Snapshots: true, SpaceWords: 1 << 18})
	const conns, perConn = 2, 3000
	var wg sync.WaitGroup
	var mu sync.Mutex
	var sawErr uint64
	for ci := 0; ci < conns; ci++ {
		conn := dialRaw(t, h.addr)
		var writes [][]byte // bursts of 1..13 requests
		var burst []byte
		for i := 1; i <= perConn; i++ {
			req := &kvproto.Request{ID: uint64(i), Key: uint64(ci*64 + i%64)}
			switch i % 8 {
			case 0: // goroutine-run, and refused by exec: an error the client sees
				req.Op = kvproto.OpBatch
			case 1:
				req.Op, req.Ops = kvproto.OpBatch, []kvproto.BatchOp{{Op: kvproto.OpAdd, Key: req.Key, Val: 1}}
			case 2:
				req.Op, req.Limit = kvproto.OpScan, 4
			case 3, 4:
				req.Op, req.Val = kvproto.OpPut, uint64(i)
			default:
				req.Op = kvproto.OpGet
			}
			burst = append(burst, reqFrame(t, req)...)
			if i%(1+i%13) == 0 || i == perConn {
				writes, burst = append(writes, burst), nil
			}
		}
		wg.Add(2)
		go func(ci int) { // writer
			defer wg.Done()
			for _, w := range writes {
				if _, err := conn.Write(w); err != nil {
					t.Errorf("conn %d: write: %v", ci, err)
					return
				}
			}
		}(ci)
		go func(ci int) { // reader
			defer wg.Done()
			br := bufio.NewReader(conn)
			conn.SetReadDeadline(time.Now().Add(30 * time.Second))
			seen := make([]bool, perConn+1)
			var errs uint64
			var buf []byte
			for n := 0; n < perConn; n++ {
				payload, err := kvproto.ReadFrame(br, buf)
				if err != nil {
					t.Errorf("conn %d: answer %d: %v", ci, n, err)
					return
				}
				buf = payload
				r, err := kvproto.DecodeResponse(payload)
				if err != nil {
					t.Errorf("conn %d: answer %d: %v", ci, n, err)
					return
				}
				if r.ID < 1 || r.ID > perConn || seen[r.ID] {
					t.Errorf("conn %d: id %d answered twice or never asked", ci, r.ID)
					return
				}
				seen[r.ID] = true
				if wantErr := r.ID%8 == 0; wantErr != (r.Status != kvproto.StatusOK) {
					t.Errorf("conn %d: id %d: status %v (%s)", ci, r.ID, r.Status, r.Msg)
				}
				if r.Status != kvproto.StatusOK {
					errs++
				}
			}
			mu.Lock()
			sawErr += errs
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	p := &h.srv.proto
	if ops, errOps := p.ops.Load(), p.errOps.Load(); ops != conns*perConn || errOps != sawErr {
		t.Errorf("proto accounting: ops=%d err_ops=%d, clients sent %d and saw %d errors", ops, errOps, conns*perConn, sawErr)
	}
	if bad := p.badFrames.Load(); bad != 0 {
		t.Errorf("bad_frames = %d, want 0", bad)
	}
}

// TestProtoLoopTeardown: the peer vanishes mid-burst with an update still
// parked at the gate. The parked op finishes once released, its answer is
// discarded into the dead writer without blocking anything, the connection
// is accounted closed and every goroutine it started is gone.
func TestProtoLoopTeardown(t *testing.T) {
	h := startProto(t, Config{AdmissionWidth: 1})
	if _, err := h.c.Put(1, 1); err != nil { // the harness client's connection is up before the baseline
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	h.srv.gate.Enter()
	conn := dialRaw(t, h.addr)
	burst := reqFrame(t, &kvproto.Request{ID: 1, Op: kvproto.OpGet, Key: 1})
	burst = append(burst, reqFrame(t, &kvproto.Request{ID: 2, Op: kvproto.OpPut, Key: 9, Val: 90})...)
	third := reqFrame(t, &kvproto.Request{ID: 3, Op: kvproto.OpGet, Key: 1})
	burst = append(burst, third[:len(third)/2]...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	if r := readResp(t, conn); r.ID != 1 {
		t.Fatalf("first answer = %+v, want the Get", r)
	}
	conn.Close()
	// The reader has seen the truncated stream once bad_frames moves; the
	// connection must stay open for its parked Put.
	waitFor(t, "the reader to see the truncated frame", func() bool { return h.srv.proto.badFrames.Load() == 1 })
	if n := h.srv.proto.conns.Load(); n != 2 {
		t.Fatalf("conns = %d with an op still parked, want 2 (harness client + this one)", n)
	}
	h.srv.gate.Exit()
	waitFor(t, "the connection to close", func() bool { return h.srv.proto.conns.Load() == 1 })
	if v, found, err := h.c.Get(9); err != nil || !found || v != 90 {
		t.Fatalf("the parked Put did not finish: Get(9) = (%d, %v, %v)", v, found, err)
	}
	waitFor(t, "the connection's goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
}

// TestProtoUnencodableResponseDegrades: a response the codec refuses to
// encode (here a pair list over the protocol's cap, the same path a frame
// over MaxFrame takes) must still answer its id — with a generic error —
// or the client waits on it until its own timeout.
func TestProtoUnencodableResponseDegrades(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	var wire bytes.Buffer
	c := &protoConn{s: s, bw: bufio.NewWriter(&wire)}
	c.send(&kvproto.Response{ID: 9, Op: kvproto.OpScan, Pairs: make([]kvproto.KV, kvproto.MaxScanPairs+1)})
	payload, err := kvproto.ReadFrame(&wire, nil)
	if err != nil {
		t.Fatalf("no frame answered: %v", err)
	}
	resp, err := kvproto.DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 9 || resp.Op != kvproto.OpScan || resp.Status != kvproto.StatusError {
		t.Fatalf("degraded answer = %+v, want (id 9, scan, error)", resp)
	}
	if n := s.proto.errOps.Load(); n != 1 {
		t.Fatalf("err_ops = %d, want 1: the client saw an error", n)
	}
}

// TestProtoReaderPathAllocs pins the reader-run path: decoding a Get,
// executing it and encoding its answer into the write buffer allocates at
// most once (ROADMAP item 2; the path measures 0 today).
func TestProtoReaderPathAllocs(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.store.Put(5, 50)
	c := &protoConn{s: s, bw: bufio.NewWriterSize(io.Discard, protoWriteBuf)}
	payload, err := kvproto.AppendRequest(nil, &kvproto.Request{ID: 1, Op: kvproto.OpGet, Key: 5})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() { c.dispatch(payload) }); n > 1 {
		t.Fatalf("decode → exec → encode of a Get: %v allocs, want <= 1", n)
	}
	if !c.resp.Found || c.resp.Val != 50 {
		t.Fatalf("the measured path answered %+v", c.resp)
	}
}

// TestProtoSpawnedBatchReturnsItsOps: a batch long enough to be spawned
// gives its decode backing back to the connection once it has run, and the
// reader's next decode takes it instead of allocating a fresh one.
func TestProtoSpawnedBatchReturnsItsOps(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	c := &protoConn{
		s: s, bw: bufio.NewWriterSize(io.Discard, protoWriteBuf),
		slots: make(chan struct{}, protoInflight), spareOps: make(chan []kvproto.BatchOp, 1),
	}
	ops := make([]kvproto.BatchOp, shortBatch+1)
	for i := range ops {
		ops[i] = kvproto.BatchOp{Op: kvproto.OpGet, Key: uint64(i)}
	}
	batch, err := kvproto.AppendRequest(nil, &kvproto.Request{ID: 1, Op: kvproto.OpBatch, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	get, err := kvproto.AppendRequest(nil, &kvproto.Request{ID: 2, Op: kvproto.OpGet, Key: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.dispatch(batch)
	c.wg.Wait()
	var spare []kvproto.BatchOp
	select {
	case spare = <-c.spareOps:
		if cap(spare) < len(ops) {
			t.Fatalf("the batch handed back %d ops of room, want its %d-op backing", cap(spare), len(ops))
		}
		c.spareOps <- spare
	default:
		t.Fatal("the spawned batch kept its ops")
	}
	c.dispatch(get)
	if unsafe.SliceData(c.req.Ops) != unsafe.SliceData(spare) || len(c.spareOps) != 0 {
		t.Fatal("the reader's next decode did not take the returned ops")
	}
}

// startBenchProto starts a recovered server with keys 0..1023 loaded,
// serving the binary protocol on a loopback port until the benchmark ends.
func startBenchProto(b *testing.B, cfg Config) (*Server, string) {
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	if err := srv.RecoveryWait(); err != nil {
		b.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { lis.Close() })
	go srv.ServeProto(lis)
	for k := uint64(0); k < 1024; k++ {
		srv.store.Put(k, k)
	}
	return srv, lis.Addr().String()
}

// pipelinedBench is pipelinedBenchReqs with every request the same point
// op on its own key.
func pipelinedBench(b *testing.B, cfg Config, conns, depth int, op kvproto.Op) {
	pipelinedBenchReqs(b, cfg, conns, depth, func(i int) *kvproto.Request {
		return &kvproto.Request{ID: uint64(i), Op: op, Key: uint64(i * 37 % 1024), Val: 1}
	})
}

// pipelinedBenchReqs drives conns loopback connections, each in lock-step
// bursts of depth pre-encoded requests (connection c's burst is reqAt(c*depth)
// through reqAt(c*depth+depth-1)), each burst written in one call, the
// connections sharing b.N between them, and reports the cost per request:
// the connection loop's own rung on the ladder.
func pipelinedBenchReqs(b *testing.B, cfg Config, conns, depth int, reqAt func(i int) *kvproto.Request) {
	_, addr := startBenchProto(b, cfg)
	run := make([]func(n int) error, conns)
	for c := range run {
		conn := dialRaw(b, addr)
		var burst []byte
		ends := make([]int, depth) // burst[:ends[i]] is the first i+1 requests
		for i := range ends {
			burst = append(burst, reqFrame(b, reqAt(c*depth+i))...)
			ends[i] = len(burst)
		}
		br := bufio.NewReader(conn)
		var buf []byte
		run[c] = func(left int) error {
			for left > 0 {
				n := min(depth, left)
				if _, err := conn.Write(burst[:ends[n-1]]); err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					var err error
					if buf, err = kvproto.ReadFrame(br, buf); err != nil {
						return err
					}
				}
				left -= n
			}
			return nil
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := range run {
		share := b.N / conns
		if c < b.N%conns {
			share++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run[c](share); err != nil {
				b.Error(err)
			}
		}()
	}
	wg.Wait()
}

func BenchmarkProtoPipelinedGet(b *testing.B) {
	cfg := Config{SpaceWords: 1 << 18}
	b.Run("depth=4", func(b *testing.B) { pipelinedBench(b, cfg, 1, 4, kvproto.OpGet) })
	b.Run("depth=32", func(b *testing.B) { pipelinedBench(b, cfg, 1, 32, kvproto.OpGet) })
}

func BenchmarkProtoPipelinedPut(b *testing.B) {
	b.Run("depth=4", func(b *testing.B) { pipelinedBench(b, Config{SpaceWords: 1 << 18}, 1, 4, kvproto.OpPut) })
}

// BenchmarkProtoPipelinedPutDurable is the same rung under group
// durability on an in-memory disk: what the redo hook, the WAL ticket and
// the flusher's delivery add to a Put, with the fsync itself free. At
// conns=16 one flusher pass writes to up to 16 connections in turn: the
// price of delivering serially where each connection once wrote its own.
func BenchmarkProtoPipelinedPutDurable(b *testing.B) {
	b.Run("depth=4", func(b *testing.B) { pipelinedBench(b, durableCfg(wal.NewMemFS()), 1, 4, kvproto.OpPut) })
	b.Run("conns=16", func(b *testing.B) { pipelinedBench(b, durableCfg(wal.NewMemFS()), 16, 4, kvproto.OpPut) })
}

// BenchmarkProtoBatch1024 is the preload's request at the server: one
// connection sends a 1 024-put batch, which the reader spawns and which
// runs irrevocably, and waits for its answer before the next. The keys are
// loaded, so every batch overwrites them and the table does not grow:
// B/op and allocs/op are what a batch itself leaves to the collector.
func BenchmarkProtoBatch1024(b *testing.B) {
	_, addr := startBenchProto(b, Config{SpaceWords: 1 << 18})
	req := &kvproto.Request{ID: 1, Op: kvproto.OpBatch, Ops: make([]kvproto.BatchOp, kvproto.MaxBatchOps)}
	for i := range req.Ops {
		req.Ops[i] = kvproto.BatchOp{Op: kvproto.OpPut, Key: uint64(i), Val: uint64(i)}
	}
	frame := reqFrame(b, req)
	conn := dialRaw(b, addr)
	br := bufio.NewReader(conn)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(frame); err != nil {
			b.Fatal(err)
		}
		var err error
		if buf, err = kvproto.ReadFrame(br, buf); err != nil {
			b.Fatal(err)
		}
	}
}
