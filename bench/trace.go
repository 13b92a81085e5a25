//go:build linux

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"tinystm/internal/admission"
	"tinystm/internal/core"
	"tinystm/internal/kvclient"
	"tinystm/internal/kvproto"
	"tinystm/internal/kvserver"
	"tinystm/internal/kvstore"
	"tinystm/internal/mem"
	"tinystm/internal/obs"
	"tinystm/internal/txn"
	"tinystm/internal/wal"
)

// The traced run measures layers from outside the program: everything in
// this file calls the layers' public functions from the benchmark's own
// process, on one goroutine, with no timers. It is never mixed with the
// end-to-end run.

// wireN caps the loopback pass: a round trip costs tens of microseconds,
// so the whole replay would not fit the run's time budget.
const wireN = 10000

// span is one timed interval of one request. Spans of a request share
// req; parent names the span that caused this one ("" for a root).
type span struct {
	req        int
	name       string
	parent     string
	start, end int64 // ns since the trace began
}

// tracer collects spans in memory; a nil tracer records nothing, which is
// how the untraced replay runs the very same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) add(req int, name, parent string, start int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{req, name, parent, start, t.now()})
}

// selfTimes returns, per span name, the total time spent in spans of that
// name minus the time their child spans cover, and how many spans there
// were. It also returns the number of spans whose children add up to more
// than the span itself, which can only mean broken instrumentation.
func selfTimes(spans []span) (self map[string]int64, count map[string]int, overfull int) {
	type key struct {
		req  int
		name string
	}
	children := map[key]int64{}
	for _, s := range spans {
		if s.parent != "" {
			children[key{s.req, s.parent}] += s.end - s.start
		}
	}
	self, count = map[string]int64{}, map[string]int{}
	for _, s := range spans {
		d := s.end - s.start
		c := children[key{s.req, s.name}]
		if c > d {
			overfull++
		}
		self[s.name] += d - c
		count[s.name]++
	}
	return self, count, overfull
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for _, s := range spans {
		b = append(b[:0], `{"req":`...)
		b = strconv.AppendInt(b, int64(s.req), 10)
		b = append(b, `,"name":"`...)
		b = append(b, s.name...)
		b = append(b, `","start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"parent":"`...)
		b = append(b, s.parent...)
		b = append(b, "\"}\n"...)
		w.Write(b)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// measureNs times fn in batches and returns the median batch's cost per
// call, in nanoseconds. Batches are sized to about half a millisecond so
// the clock's own cost vanishes.
func measureNs(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= 500*time.Microsecond || n >= 1<<20 {
			break
		}
		n *= 2
	}
	const batches = 21
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	m, _ := median(per)
	return m
}

// allocsPerCall is the number of heap allocations one call of fn makes,
// counted over runs calls on a single processor (like
// testing.AllocsPerRun: the truncated mean, so a stray allocation by the
// runtime cannot change the answer).
func allocsPerCall(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// inproc is the workload's server built inside the benchmark process:
// same geometry, gate width and durability mode as the child, but no
// tuner and no checkpointer, so nothing in it runs on a timer.
type inproc struct {
	sp     *spec
	srv    *kvserver.Server
	st     *kvstore.Store[*core.Tx]
	gate   *admission.Gate
	walDir string
	pl, hl net.Listener
	hs     *http.Server
}

func newInproc(sp *spec) (*inproc, error) {
	cfg := kvserver.Config{
		Geometry:       core.Params{Locks: sp.locks, Shifts: 0, Hier: 1},
		Snapshots:      true,
		AdmissionWidth: sp.gate,
	}
	p := &inproc{sp: sp}
	if sp.wal {
		dir, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), sp.name+"-trace-wal-")
		if err != nil {
			return nil, err
		}
		p.walDir = dir
		cfg.Durability, cfg.WALDir = kvserver.DurabilityGroup, dir
	}
	if sp.gate > 0 {
		p.gate = admission.New(sp.gate)
	}
	srv, err := kvserver.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.RecoveryWait(); err != nil {
		srv.Close()
		return nil, err
	}
	p.srv, p.st = srv, srv.Store()
	preloadStore(sp, p.st)
	if p.pl, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		p.close()
		return nil, err
	}
	if p.hl, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		p.close()
		return nil, err
	}
	go srv.ServeProto(p.pl)
	p.hs = &http.Server{Handler: srv.Handler()}
	go p.hs.Serve(p.hl)
	return p, nil
}

func (p *inproc) close() {
	if p.pl != nil {
		p.pl.Close()
	}
	if p.hs != nil {
		p.hs.Close()
	} else if p.hl != nil {
		p.hl.Close()
	}
	p.srv.Close()
	if p.walDir != "" {
		os.RemoveAll(p.walDir)
	}
}

// protoRequest is op o as the binary protocol carries it.
func protoRequest(id uint64, o op) *kvproto.Request {
	req := &kvproto.Request{ID: id}
	switch o.kind {
	case opGet:
		req.Op, req.Key = kvproto.OpGet, o.key
	case opPut:
		req.Op, req.Key, req.Val = kvproto.OpPut, o.key, o.val
	case opAdd:
		req.Op, req.Key, req.Val = kvproto.OpAdd, o.key, o.val
	case opCAS:
		req.Op, req.Key, req.Old, req.Val = kvproto.OpCAS, o.key, o.old, o.val
	case opTransfer:
		req.Op, req.Ops = kvproto.OpBatch, transferOps(o)
	case opBatchGet:
		req.Op, req.Ops = kvproto.OpBatch, ledgerGets
	case opScan:
		req.Op, req.Limit = kvproto.OpScan, scanLimit
	}
	return req
}

var storeKinds = [...]kvstore.OpKind{
	kvproto.OpGet: kvstore.OpGet, kvproto.OpPut: kvstore.OpPut, kvproto.OpDelete: kvstore.OpDelete,
	kvproto.OpCAS: kvstore.OpCAS, kvproto.OpAdd: kvstore.OpAdd,
}

// preloadStore applies preloadBatches to an in-process store (batched
// because with durability on every store call waits for an fsync).
func preloadStore(sp *spec, st *kvstore.Store[*core.Tx]) {
	for _, b := range preloadBatches(sp) {
		storeOp(st, &kvproto.Request{Op: kvproto.OpBatch, Ops: b})
	}
}

// storeOp runs a decoded request against the store, the way the server's
// executor does, and returns the response.
func storeOp(st *kvstore.Store[*core.Tx], req *kvproto.Request) *kvproto.Response {
	resp := &kvproto.Response{ID: req.ID, Op: req.Op}
	switch req.Op {
	case kvproto.OpGet:
		resp.Val, resp.Found = st.Get(req.Key)
	case kvproto.OpPut:
		resp.OK = st.Put(req.Key, req.Val)
	case kvproto.OpAdd:
		resp.Val = st.Add(req.Key, req.Val)
	case kvproto.OpCAS:
		resp.OK = st.CAS(req.Key, req.Old, req.Val)
	case kvproto.OpBatch:
		ops := make([]kvstore.Op, len(req.Ops))
		for i, o := range req.Ops {
			ops[i] = kvstore.Op{Kind: storeKinds[o.Op], Key: o.Key, Val: o.Val, Old: o.Old}
		}
		res := st.Apply(ops)
		resp.Results = make([]kvproto.BatchResult, len(res))
		for i, r := range res {
			resp.Results[i] = kvproto.BatchResult{Val: r.Val, Found: r.Found, OK: r.OK}
		}
	case kvproto.OpScan:
		pairs, total := st.Scan(int(req.Limit))
		resp.Total, resp.Snapshot = total, true
		resp.Pairs = make([]kvproto.KV, len(pairs))
		for i, kv := range pairs {
			resp.Pairs[i] = kvproto.KV{Key: kv.Key, Val: kv.Val}
		}
	}
	return resp
}

// The four codec boundaries, each as the wire sees it: payload plus frame.

func encodeRequest(req *kvproto.Request) ([]byte, error) {
	payload, err := kvproto.AppendRequest(nil, req)
	if err != nil {
		return nil, err
	}
	return kvproto.AppendFrame(nil, payload)
}

func decodeRequest(frame []byte) (*kvproto.Request, error) {
	payload, err := kvproto.ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		return nil, err
	}
	return kvproto.DecodeRequest(payload)
}

func encodeResponse(resp *kvproto.Response) ([]byte, error) {
	payload, err := kvproto.AppendResponse(nil, resp)
	if err != nil {
		return nil, err
	}
	return kvproto.AppendFrame(nil, payload)
}

func decodeResponse(frame []byte) (*kvproto.Response, error) {
	payload, err := kvproto.ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		return nil, err
	}
	return kvproto.DecodeResponse(payload)
}

// descend makes request i's descent by hand through the layers' public
// functions, recording one span per boundary under a `request` root:
// codec in, gate, store (which covers core, mvcc and the WAL wait), codec
// out. The HTTP workload has no public codec boundary, so its descent is
// the store op alone; its handler is timed whole in wirePass.
func (p *inproc) descend(tr *tracer, i int, o op) error {
	t0 := tr.now()
	req := protoRequest(uint64(i), o)
	if !p.sp.http {
		s := tr.now()
		frame, err := encodeRequest(req)
		if err != nil {
			return err
		}
		tr.add(i, "kvproto.enc_req", "request", s)

		s = tr.now()
		if req, err = decodeRequest(frame); err != nil {
			return err
		}
		tr.add(i, "kvproto.dec_req", "request", s)
	}
	gated := p.gate != nil && !o.kind.isRead()
	if gated {
		s := tr.now()
		p.gate.Enter()
		tr.add(i, "admission.enter", "request", s)
	}
	s := tr.now()
	resp := storeOp(p.st, req)
	tr.add(i, "kvstore."+opNames[o.kind], "request", s)
	if gated {
		p.gate.Exit()
	}
	if !p.sp.http {
		s = tr.now()
		frame, err := encodeResponse(resp)
		if err != nil {
			return err
		}
		tr.add(i, "kvproto.enc_resp", "request", s)

		s = tr.now()
		if resp, err = decodeResponse(frame); err != nil {
			return err
		}
		tr.add(i, "kvproto.dec_resp", "request", s)
	}
	tr.add(i, "request", "", t0)
	if o.kind == opBatchGet {
		return checkLedger(resp.Results)
	}
	return nil
}

// nullWriter is the smallest http.ResponseWriter: it keeps the status and
// throws the body away.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }

// serveGet pushes one GET /kv/{key} through the server's root handler
// without a socket.
func serveGet(h http.Handler, key uint64) error {
	req, err := http.NewRequest(http.MethodGet, keyPath(key), nil)
	if err != nil {
		return err
	}
	w := &nullWriter{h: http.Header{}, status: http.StatusOK}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return fmt.Errorf("handler answered %d", w.status)
	}
	return nil
}

// ladder records the in-process rungs into a run's per-layer metrics.
type ladder struct{ m metrics }

// ns times fn (see measureNs) and records it under name.
func (l ladder) ns(name string, fn func()) float64 {
	v := measureNs(fn)
	l.m[name] = metric{v, "ns"}
	return v
}

func (l ladder) us(name string, fn func()) float64 {
	v := measureNs(fn) / 1000
	l.m[name] = metric{v, "us"}
	return v
}

func (l ladder) allocs(name string, fn func()) {
	l.m[name] = metric{allocsPerCall(200, fn), "count"}
}

// sink keeps the ladder's loads alive.
var sink uint64

// rungKey is the key the single-key rungs hammer.
const rungKey = 7

// coreAndStoreRungs times the STM alone on the workload's lock table, then
// the public Store API, then Map.Get inside a transaction the benchmark
// owns: the difference to Store.Get is the Store's own overhead (descriptor
// pool, closures, heat map, durability ticket). Returns Store.Get's cost.
func (l ladder) coreAndStoreRungs(p *inproc) (getNs float64) {
	tm, st := p.srv.TM(), p.st
	tx := tm.NewTx()
	defer tx.Release()
	var addr uint64
	tm.Atomic(tx, func(tx *core.Tx) {
		addr = tx.Alloc(1)
		tx.Store(addr, 1)
	})
	l.ns("core.atomic_empty_ns", func() { tm.Atomic(tx, func(*core.Tx) {}) })
	l.ns("core.atomic_ro1_ns", func() { tm.AtomicRO(tx, func(tx *core.Tx) { sink = tx.Load(addr) }) })
	rw1 := func() { tm.Atomic(tx, func(tx *core.Tx) { tx.Store(addr, tx.Load(addr)+1) }) }
	l.ns("core.atomic_rw1_ns", rw1)
	l.allocs("core.atomic_rw1_allocs", rw1)

	get := func() { sink, _ = st.Get(rungKey) }
	put := func() { st.Put(rungKey, 1) }
	batch4 := []kvstore.Op{
		{Kind: kvstore.OpAdd, Key: ledgerBase, Val: 1}, {Kind: kvstore.OpAdd, Key: ledgerBase + 1, Val: ^uint64(0)},
		{Kind: kvstore.OpGet, Key: 1}, {Kind: kvstore.OpGet, Key: 2},
	}
	gets64 := make([]kvstore.Op, ledgerKeys)
	for j := range gets64 {
		gets64[j] = kvstore.Op{Kind: kvstore.OpGet, Key: ledgerBase + uint64(j)}
	}
	getNs = l.ns("kvstore.get_ns", get)
	l.ns("kvstore.put_ns", put)
	flip := uint64(0)
	st.Put(rungKey+1, flip)
	l.ns("kvstore.cas_ns", func() {
		st.CAS(rungKey+1, flip, flip^1)
		flip ^= 1
	})
	l.ns("kvstore.add_ns", func() { st.Add(rungKey+2, 1) })
	l.ns("kvstore.batch4_ns", func() { st.Apply(batch4) })
	l.us("kvstore.batchget64_us", func() { st.Apply(gets64) })
	l.us("kvstore.scan1k_us", func() { st.Scan(scanLimit) })
	l.allocs("kvstore.get_allocs", get)
	l.allocs("kvstore.put_allocs", put)
	l.allocs("kvstore.batch4_allocs", func() { st.Apply(batch4) })
	mapGetNs := l.ns("kvstore.map_get_ns", func() {
		tm.AtomicRO(tx, func(tx *core.Tx) { sink, _ = st.Map().Get(tx, rungKey) })
	})
	l.m["kvstore.store_overhead_ns"] = metric{getNs - mapGetNs, "ns"}

	h := obs.NewHistogram()
	v := uint64(1000)
	l.ns("obs.record_ns", func() {
		h.Record(v)
		v += 37
	})
	if p.gate != nil {
		l.ns("admission.enter_exit_ns", func() {
			p.gate.Enter()
			p.gate.Exit()
		})
	}
	return getNs
}

// binaryRungs times the codec on one get, then a get through kvclient over
// loopback to the in-process server, alone and 64 deep. What the round trip
// costs beyond codec and store is the server's connection handling plus
// the sockets.
func (l ladder) binaryRungs(p *inproc, getNs float64) error {
	req := protoRequest(1, op{kind: opGet, key: rungKey})
	resp := &kvproto.Response{ID: 1, Op: kvproto.OpGet, Found: true, Val: 3}
	reqFrame, err := encodeRequest(req)
	if err != nil {
		return err
	}
	respFrame, err := encodeResponse(resp)
	if err != nil {
		return err
	}
	encReq := func() { encodeRequest(req) }
	decReq := func() { decodeRequest(reqFrame) }
	encResp := func() { encodeResponse(resp) }
	decResp := func() { decodeResponse(respFrame) }
	codec := l.ns("kvproto.enc_req_ns", encReq) + l.ns("kvproto.dec_req_ns", decReq) +
		l.ns("kvproto.enc_resp_ns", encResp) + l.ns("kvproto.dec_resp_ns", decResp)
	l.allocs("kvproto.roundtrip_allocs", func() { encReq(); decReq(); encResp(); decResp() })
	l.m["kvproto.bytes_per_get"] = metric{float64(len(reqFrame) + len(respFrame)), "B"}

	const piped, perWorker = 64, 500
	c := kvclient.New(p.pl.Addr().String(), kvclient.Options{MaxInflight: piped})
	defer c.Close()
	//stm:allow-atomic guards the first error seen by the pipelined callers
	var mu sync.Mutex
	var getErr error
	cget := func() {
		if _, _, err := c.Get(rungKey); err != nil {
			mu.Lock()
			getErr = err
			mu.Unlock()
		}
	}
	rtt := l.us("kvclient.get_rtt_us", cget)
	l.allocs("kvclient.get_allocs", cget)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < piped; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cget()
			}
		}()
	}
	wg.Wait()
	l.m["kvclient.pipelined_get_ns"] = metric{float64(time.Since(t0)) / (piped * perWorker), "ns"}
	l.m["kvserver.proto_self_us"] = metric{rtt - (codec+getNs)/1000, "us"}
	if getErr != nil {
		return fmt.Errorf("loopback get: %w", getErr)
	}
	return nil
}

// httpRungs times a GET through the root handler without a socket, then
// the same GET over loopback.
func (l ladder) httpRungs(p *inproc) error {
	hnd := p.srv.Handler()
	var getErr error
	serve := func() {
		if err := serveGet(hnd, rungKey); err != nil {
			getErr = err
		}
	}
	l.us("kvserver.http_handler_us", serve)
	l.allocs("kvserver.http_handler_allocs", serve)
	t := newHTTPTarget(p.hl.Addr().String())
	defer t.close()
	l.us("kvserver.http_rtt_us", func() {
		if _, _, err := t.get(rungKey); err != nil {
			getErr = err
		}
	})
	if getErr != nil {
		return fmt.Errorf("in-process http get: %w", getErr)
	}
	return nil
}

// tracedRun adds the L metrics of sp to res.PerLayer, writes the span file
// and checks what the traced run is responsible for checking. A rung the
// workload's layers do not include is simply not recorded.
func tracedRun(sp *spec, g *gen, res *result) error {
	p, err := newInproc(sp)
	if err != nil {
		return err
	}
	defer p.close()
	l := ladder{res.PerLayer}
	getNs := l.coreAndStoreRungs(p)
	if sp.http {
		err = l.httpRungs(p)
	} else {
		err = l.binaryRungs(p, getNs)
	}
	if err != nil {
		return err
	}
	if sp.wal {
		if err := walRungs(sp, g, res); err != nil {
			return err
		}
	}

	// The replay: untraced, then traced, then over loopback.
	n := sp.traceN
	replay := func(tr *tracer) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := p.descend(tr, i, g.at(uint64(i))); err != nil {
				return 0, fmt.Errorf("request %d: %w", i, err)
			}
		}
		return time.Since(t0), nil
	}
	plain, err := replay(nil)
	if err != nil {
		return err
	}
	tm := p.srv.TM()
	stats0 := tm.Stats()
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, n*7)}
	traced, err := replay(tr)
	if err != nil {
		return err
	}
	d := tm.Stats().Sub(stats0)
	l.m["bench.trace_overhead_pct"] = metric{100 * (traced.Seconds() - plain.Seconds()) / plain.Seconds(), "%"}
	l.m["core.locks_validated_per_commit"] = metric{float64(d.LocksValidated) / float64(d.Commits), "count"}
	if d.Aborts != 0 {
		res.violate("traced replay is single-threaded but saw %d aborts", d.Aborts)
	}
	if err := p.wirePass(tr, g, min(n, wireN)); err != nil {
		return err
	}
	if _, _, overfull := selfTimes(tr.spans); overfull > 0 {
		res.violate("%d spans have children that add up to more than the span", overfull)
	}
	if err := writeSpans(filepath.Join(outDir, "trace-"+sp.name+".jsonl"), tr.spans); err != nil {
		return err
	}
	res.Samples["trace.spans"] = len(tr.spans)

	res.Counts = map[string]float64{
		"trace.commits":      float64(d.Commits),
		"trace.aborts":       float64(d.Aborts),
		"trace.redo_records": float64(d.RedoRecords),
	}
	for _, name := range exactCounts {
		if mv, ok := l.m[name]; ok {
			res.Counts[name] = mv.Value
		}
	}
	return nil
}

// wirePass sends the first n requests once more, one at a time, over
// loopback to the in-process server: a `wire.request` root span each. What
// it costs beyond the by-hand descent is the server's connection handling
// plus the sockets.
func (p *inproc) wirePass(tr *tracer, g *gen, n int) error {
	var t target
	if p.sp.http {
		t = newHTTPTarget(p.hl.Addr().String())
	} else {
		t = binTarget{kvclient.New(p.pl.Addr().String(), kvclient.Options{})}
	}
	defer t.close()
	for i := 0; i < n; i++ {
		s := tr.now()
		if err := send(t, g.at(uint64(i))); err != nil {
			return fmt.Errorf("wire request %d: %w", i, err)
		}
		tr.add(i, "wire.request", "", s)
	}
	if p.sp.http {
		hnd := p.srv.Handler()
		for i := 0; i < n; i++ {
			o := g.at(uint64(i))
			if o.kind != opGet {
				continue
			}
			s := tr.now()
			if err := serveGet(hnd, o.key); err != nil {
				return err
			}
			tr.add(i, "kvserver.http_handler", "", s)
		}
	}
	return nil
}

// walSink waits for a commit's WAL ticket, as kvserver's does.
type walSink struct{}

func (walSink) WaitDurable(t txn.DurableTicket) error { return t.(*wal.Pending).Wait() }

// walRungs measures the WAL alone and runs the crash check: the first
// traceN requests of the stream go through a durable store whose log sits
// on wal.MemFS; then the filesystem "loses power" (every unsynced byte is
// discarded) and wal.Replay must still hold every update that was acked.
func walRungs(sp *spec, g *gen, res *result) error {
	m := res.PerLayer
	dir, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), "wal-rung-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		return err
	}
	var waitErr error
	i := uint64(0)
	us := measureNs(func() {
		i++
		if err := log.Append(0, i, []txn.RedoOp{{Kind: txn.RedoPut, Key: i, Val: i}}).Wait(); err != nil {
			waitErr = err
		}
	}) / 1000
	if err := log.Close(); err != nil {
		return err
	}
	if waitErr != nil {
		return fmt.Errorf("wal append: %w", waitErr)
	}
	m["wal.append_wait_us"] = metric{us, "us"}

	fs := wal.NewMemFS()
	mlog, err := wal.Open(wal.Config{Dir: "wal", FS: fs})
	if err != nil {
		return err
	}
	tm, err := core.New(core.Config{Space: mem.NewSpace(1 << 22), Locks: sp.locks, Hier: 1, Snapshots: true})
	if err != nil {
		return err
	}
	st := kvstore.NewStore[*core.Tx](tm, 16, 64)
	defer st.Close()
	preloadStore(sp, st)
	if err := st.EnableDurability(walSink{}); err != nil {
		return err
	}
	tm.SetRedoHook(func(epoch, ts uint64, ops []txn.RedoOp) txn.DurableTicket {
		return mlog.Append(epoch, ts, ops)
	})
	// acked is what the log owes us: the last value of every key an acked
	// update wrote.
	acked := map[uint64]uint64{}
	updates := 0
	for i := 0; i < sp.traceN; i++ {
		o := g.at(uint64(i))
		if o.kind.isRead() {
			continue
		}
		req := protoRequest(uint64(i), o)
		resp := storeOp(st, req)
		updates++
		switch o.kind {
		case opPut:
			acked[o.key] = o.val
		case opAdd:
			acked[o.key] = resp.Val
		case opCAS:
			if resp.OK {
				acked[o.key] = o.val
			}
		case opTransfer:
			acked[ledgerBase+o.key] = resp.Results[0].Val
			acked[ledgerBase+o.key2] = resp.Results[1].Val
		}
	}
	tm.SetRedoHook(nil)
	var logBytes int
	names, err := fs.ReadDir("wal")
	if err != nil {
		return err
	}
	for _, name := range names {
		b, err := fs.ReadFile("wal/" + name)
		if err != nil {
			return err
		}
		logBytes += len(b)
	}
	fs.Crash(0)
	state, _, err := wal.Replay(fs, "wal")
	if err != nil {
		return fmt.Errorf("replay after crash: %w", err)
	}
	lost := 0
	for k, v := range acked {
		if got, ok := state[k]; !ok || got != v {
			lost++
		}
	}
	_ = mlog.Close() // its handles died in the crash; nothing left to flush
	m["wal.crash_acked_lost"] = metric{float64(lost), "count"}
	m["wal.bytes_per_update"] = metric{float64(logBytes) / float64(max(1, updates)), "B"}
	if lost > 0 {
		res.violate("%d acked updates missing from the log after a crash", lost)
	}
	return nil
}
