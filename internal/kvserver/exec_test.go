package kvserver

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/kvproto"
	"tinystm/internal/resilience"
)

// maxBatchOps keeps server_test.go compiling unmodified: the server's own
// copy of the cap is gone, both surfaces use the kvproto constant.
const maxBatchOps = kvproto.MaxBatchOps

// outcome is what a client of either surface can observe of one request,
// in the wire vocabulary. The parity test derives it from an HTTP
// status+body and from a decoded kvproto.Response and requires the two to
// be equal.
type outcome struct {
	Status    kvproto.Status
	Msg       string
	Found, OK bool
	Val       uint64
	Results   []kvproto.BatchResult
	Total     uint64
	NPairs    int
	Snapshot  bool
}

// step is one request of the parity sequence, buildable on both surfaces
// over a surface-private key base kb.
type step struct {
	name string
	req  func(kb uint64) kvproto.Request
	// HTTP form: method, path and body of the same request.
	method string
	path   func(kb uint64) string
	body   func(kb uint64) string
}

func kvPath(off uint64, suffix string) func(uint64) string {
	return func(kb uint64) string { return fmt.Sprintf("/kv/%d%s", kb+off, suffix) }
}

func fixed(s string) func(uint64) string { return func(uint64) string { return s } }

// paritySteps covers every op in both outcomes. Within one run the steps
// build on each other (the put before the hit, the add before the delete).
var paritySteps = []step{
	{"get miss", func(kb uint64) kvproto.Request { return kvproto.Request{Op: kvproto.OpGet, Key: kb + 1} },
		"GET", kvPath(1, ""), fixed("")},
	{"put insert", func(kb uint64) kvproto.Request { return kvproto.Request{Op: kvproto.OpPut, Key: kb + 1, Val: 10} },
		"PUT", kvPath(1, ""), fixed("10")},
	{"put overwrite", func(kb uint64) kvproto.Request { return kvproto.Request{Op: kvproto.OpPut, Key: kb + 1, Val: 11} },
		"PUT", kvPath(1, ""), fixed("11")},
	{"get hit", func(kb uint64) kvproto.Request { return kvproto.Request{Op: kvproto.OpGet, Key: kb + 1} },
		"GET", kvPath(1, ""), fixed("")},
	{"cas fail", func(kb uint64) kvproto.Request {
		return kvproto.Request{Op: kvproto.OpCAS, Key: kb + 1, Old: 99, Val: 5}
	}, "POST", kvPath(1, "/cas"), fixed(`{"old":99,"new":5}`)},
	{"cas ok", func(kb uint64) kvproto.Request {
		return kvproto.Request{Op: kvproto.OpCAS, Key: kb + 1, Old: 11, Val: 12}
	}, "POST", kvPath(1, "/cas"), fixed(`{"old":11,"new":12}`)},
	{"add", func(kb uint64) kvproto.Request { return kvproto.Request{Op: kvproto.OpAdd, Key: kb + 2, Val: 7} },
		"POST", kvPath(2, "/add"), fixed(`{"delta":7}`)},
	{"delete miss", func(kb uint64) kvproto.Request { return kvproto.Request{Op: kvproto.OpDelete, Key: kb + 3} },
		"DELETE", kvPath(3, ""), fixed("")},
	{"delete hit", func(kb uint64) kvproto.Request { return kvproto.Request{Op: kvproto.OpDelete, Key: kb + 2} },
		"DELETE", kvPath(2, ""), fixed("")},
	{"batch rw", func(kb uint64) kvproto.Request {
		return kvproto.Request{Op: kvproto.OpBatch, Ops: []kvproto.BatchOp{
			{Op: kvproto.OpPut, Key: kb + 4, Val: 1},
			{Op: kvproto.OpAdd, Key: kb + 4, Val: 2},
			{Op: kvproto.OpCAS, Key: kb + 4, Old: 3, Val: 9},
			{Op: kvproto.OpGet, Key: kb + 4},
			{Op: kvproto.OpDelete, Key: kb + 3},
		}}
	}, "POST", fixed("/batch"), func(kb uint64) string {
		return fmt.Sprintf(`{"ops":[{"op":"put","key":%d,"val":1},{"op":"add","key":%d,"val":2},`+
			`{"op":"cas","key":%d,"old":3,"val":9},{"op":"get","key":%d},{"op":"delete","key":%d}]}`,
			kb+4, kb+4, kb+4, kb+4, kb+3)
	}},
	{"batch ro", func(kb uint64) kvproto.Request {
		return kvproto.Request{Op: kvproto.OpBatch, Ops: []kvproto.BatchOp{
			{Op: kvproto.OpGet, Key: kb + 1}, {Op: kvproto.OpGet, Key: kb + 3},
		}}
	}, "POST", fixed("/batch"), func(kb uint64) string {
		return fmt.Sprintf(`{"ops":[{"op":"get","key":%d},{"op":"get","key":%d}]}`, kb+1, kb+3)
	}},
	{"batch empty", func(uint64) kvproto.Request { return kvproto.Request{Op: kvproto.OpBatch} },
		"POST", fixed("/batch"), fixed(`{"ops":[]}`)},
	{"scan", func(uint64) kvproto.Request { return kvproto.Request{Op: kvproto.OpScan} },
		"GET", fixed("/scan"), fixed("")},
	{"scan limit", func(uint64) kvproto.Request { return kvproto.Request{Op: kvproto.OpScan, Limit: 1} },
		"GET", fixed("/scan?limit=1"), fixed("")},
}

// parityHarness is one server with both codecs attached.
type parityHarness struct {
	s    *Server
	ts   *httptest.Server
	conn net.Conn
	id   uint64
}

func newParityHarness(t *testing.T) *parityHarness {
	t.Helper()
	s, err := New(Config{SpaceWords: 1 << 18, shards: 4, buckets: 8, Snapshots: true, AdmissionWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeProto(lis)
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		conn.Close()
		lis.Close()
		ts.Close()
		s.Close()
	})
	return &parityHarness{s: s, ts: ts, conn: conn}
}

// A request travels either over the wire with a relative budget (0: none),
// or — expired — straight into the codec behind the socket with a deadline
// already in the past: the only way to reach exec's own deadline checks
// deterministically, since on the wire an expired budget cannot get past
// header parsing (HTTP) or the dequeue check (binary).
type delivery struct {
	timeoutMs uint32
	expired   bool
}

func (h *parityHarness) viaHTTP(t *testing.T, st step, kb uint64, d delivery) outcome {
	t.Helper()
	var code int
	var hdr http.Header
	var body []byte
	if d.expired {
		r := httptest.NewRequest(st.method, st.path(kb), strings.NewReader(st.body(kb)))
		w := httptest.NewRecorder()
		h.s.mux.ServeHTTP(w, withDeadline(r, time.Now().Add(-time.Millisecond)))
		code, hdr, body = w.Code, w.Header(), w.Body.Bytes()
	} else {
		r, err := http.NewRequest(st.method, h.ts.URL+st.path(kb), strings.NewReader(st.body(kb)))
		if err != nil {
			t.Fatal(err)
		}
		if d.timeoutMs > 0 {
			r.Header.Set(resilience.TimeoutHeader, fmt.Sprint(d.timeoutMs))
		}
		resp, err := h.ts.Client().Do(r)
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		code, hdr = resp.StatusCode, resp.Header
	}

	// The status mapping, inverted: one HTTP code per wire status, plus the
	// two codes HTTP splits out of a status (404 is an OK miss, 507 is the
	// arena-exhaustion StatusError).
	var o outcome
	switch code {
	case http.StatusOK:
	case http.StatusNotFound:
		if got := strings.TrimSpace(string(body)); got != "key not found" {
			t.Fatalf("%s: 404 body %q", st.name, got)
		}
		return o
	case http.StatusServiceUnavailable:
		o.Status = kvproto.StatusUnavailable
		if hdr.Get("Retry-After") == "" {
			t.Fatalf("%s: 503 without Retry-After", st.name)
		}
	case http.StatusBadRequest, http.StatusInsufficientStorage:
		o.Status = kvproto.StatusError
	case http.StatusGatewayTimeout:
		o.Status = kvproto.StatusDeadlineExceeded
	default:
		t.Fatalf("%s: unexpected HTTP status %d (%s)", st.name, code, body)
	}
	if o.Status != kvproto.StatusOK {
		o.Msg = strings.TrimSuffix(string(body), "\n")
		return o
	}
	var doc struct {
		Val      uint64
		Inserted bool
		OK       bool
		Results  []kvproto.BatchResult
		Keys     uint64
		Pairs    []kvproto.KV
		Snapshot bool
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("%s: bad JSON %q: %v", st.name, body, err)
	}
	switch st.req(kb).Op {
	case kvproto.OpGet:
		o.Found, o.Val = true, doc.Val
	case kvproto.OpPut:
		o.OK = doc.Inserted
	case kvproto.OpDelete:
		o.Found = true
	case kvproto.OpCAS:
		o.OK = doc.OK
	case kvproto.OpAdd:
		o.Val = doc.Val
	case kvproto.OpBatch:
		o.Results = doc.Results
	case kvproto.OpScan:
		if doc.Pairs == nil {
			t.Fatalf("%s: pairs rendered as null, want []", st.name)
		}
		o.Total, o.NPairs, o.Snapshot = doc.Keys, len(doc.Pairs), doc.Snapshot
	}
	return o
}

func (h *parityHarness) viaProto(t *testing.T, st step, kb uint64, d delivery) outcome {
	t.Helper()
	h.id++
	req := st.req(kb)
	req.ID, req.TimeoutMs = h.id, d.timeoutMs
	var payload []byte
	var err error
	if d.expired {
		var resp kvproto.Response
		h.s.exec(surfProto, time.Now().Add(-time.Millisecond), &req, &resp, nil)
		payload, err = kvproto.AppendResponse(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		payload = h.roundTrip(t, &req)
	}
	resp, err := kvproto.DecodeResponse(payload)
	if err != nil {
		t.Fatalf("%s: decode response: %v", st.name, err)
	}
	if resp.ID != req.ID || resp.Op != req.Op {
		t.Fatalf("%s: response (id %d, %v) does not echo request (id %d, %v)", st.name, resp.ID, resp.Op, req.ID, req.Op)
	}
	return outcome{
		Status: resp.Status, Msg: resp.Msg,
		Found: resp.Found, OK: resp.OK, Val: resp.Val,
		Results: resp.Results,
		Total:   resp.Total, NPairs: len(resp.Pairs), Snapshot: resp.Snapshot,
	}
}

func (h *parityHarness) roundTrip(t *testing.T, req *kvproto.Request) []byte {
	t.Helper()
	payload, err := kvproto.AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	return h.roundTripPayload(t, payload)
}

func (h *parityHarness) roundTripPayload(t *testing.T, payload []byte) []byte {
	t.Helper()
	frame, err := kvproto.AppendFrame(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	h.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	out, err := kvproto.ReadFrame(h.conn, nil)
	if err != nil {
		t.Fatalf("read response frame: %v", err)
	}
	return out
}

// sheds snapshots the deadline shed counters: one row of stages per
// surface.
type sheds [nSurfaces][nShedStages]uint64

func (h *parityHarness) sheds() (c sheds) {
	for surf := range c {
		for st := range c[surf] {
			c[surf][st] = h.s.deadlineShed[surf][st].Load()
		}
	}
	return c
}

// TestCodecParity sends every op through both codecs against one server
// and requires the same observable outcome and the same shed accounting
// from each, in every server state: exec is the only place either is
// decided, so the surfaces cannot disagree.
func TestCodecParity(t *testing.T) {
	h := newParityHarness(t)
	s := h.s

	type scenario struct {
		name  string
		enter func()
		leave func()
		d     delivery
		// want pins the status of a few landmark steps so that parity can
		// not be satisfied by both surfaces being equally wrong.
		want map[string]kvproto.Status
	}
	lifecycle := func(st int32) func() { return func() { s.dur.state.Store(st) } }
	ready := lifecycle(stateReady)
	const (
		ok   = kvproto.StatusOK
		una  = kvproto.StatusUnavailable
		fail = kvproto.StatusError
		late = kvproto.StatusDeadlineExceeded
	)
	scenarios := []scenario{
		{name: "ready", want: map[string]kvproto.Status{
			"get miss": ok, "put insert": ok, "delete miss": ok, "batch rw": ok, "batch empty": fail, "scan": ok}},
		{name: "starting", enter: lifecycle(stateStarting), leave: ready, want: map[string]kvproto.Status{
			"get miss": una, "put insert": una, "batch ro": una, "batch empty": una, "scan": una}},
		// Degraded serves exactly the ops that do not write: Get and Scan.
		// A batch is refused whatever it holds, all-Get and empty included.
		{name: "degraded", enter: lifecycle(stateDegraded), leave: ready, want: map[string]kvproto.Status{
			"get miss": ok, "put insert": una, "put overwrite": una, "get hit": ok,
			"cas fail": una, "cas ok": una, "add": una, "delete miss": una, "delete hit": una,
			"batch rw": una, "batch ro": una, "batch empty": una, "scan": ok, "scan limit": ok}},
		{name: "failed", enter: lifecycle(stateFailed), leave: ready, want: map[string]kvproto.Status{
			"get miss": una, "put insert": una, "scan": una}},
		// The gate's only slot is held: updates carrying a budget are shed
		// at the gate once it runs out, reads never queue there.
		{name: "gate held", enter: s.gate.Enter, leave: s.gate.Exit, d: delivery{timeoutMs: 15},
			want: map[string]kvproto.Status{
				"get miss": ok, "put insert": late, "cas ok": late, "add": late, "delete hit": late,
				"batch rw": late, "batch ro": ok, "scan": ok}},
		// Budget spent before exec: long operations refuse to start (op
		// stage), updates are refused at the gate, point reads are too cheap
		// to check.
		{name: "expired", d: delivery{expired: true}, want: map[string]kvproto.Status{
			"get miss": ok, "put insert": late, "batch rw": late, "batch ro": late, "batch empty": fail, "scan": late}},
	}

	for _, sc := range scenarios {
		for name := range sc.want {
			if !slices.ContainsFunc(paritySteps, func(st step) bool { return st.name == name }) {
				t.Fatalf("%s: want pins %q, which is no step", sc.name, name)
			}
		}
	}

	for i, sc := range scenarios {
		if sc.enter != nil {
			sc.enter()
		}
		// Each (scenario, surface) works on keys nobody touched before, so
		// both surfaces replay the sequence from the same starting point.
		kbHTTP, kbProto := uint64(i*1000), uint64(i*1000+500)
		for _, st := range paritySteps {
			c0 := h.sheds()
			viaHTTP := h.viaHTTP(t, st, kbHTTP, sc.d)
			c1 := h.sheds()
			viaProto := h.viaProto(t, st, kbProto, sc.d)
			c2 := h.sheds()

			if !reflect.DeepEqual(viaHTTP, viaProto) {
				t.Errorf("%s / %s: surfaces disagree:\n http  %+v\n proto %+v", sc.name, st.name, viaHTTP, viaProto)
			}
			if want, pinned := sc.want[st.name]; pinned && viaHTTP.Status != want {
				t.Errorf("%s / %s: status %v, want %v (%s)", sc.name, st.name, viaHTTP.Status, want, viaHTTP.Msg)
			}
			// Same sheds, each on its own surface's row.
			var dHTTP, dProto sheds
			for surf := 0; surf < nSurfaces; surf++ {
				for sg := 0; sg < nShedStages; sg++ {
					dHTTP[surf][sg] = c1[surf][sg] - c0[surf][sg]
					dProto[surf][sg] = c2[surf][sg] - c1[surf][sg]
				}
			}
			if dHTTP[surfHTTP] != dProto[surfProto] ||
				dHTTP[surfProto] != [nShedStages]uint64{} || dProto[surfHTTP] != [nShedStages]uint64{} {
				t.Errorf("%s / %s: shed accounting differs:\n http  %+v\n proto %+v", sc.name, st.name, dHTTP, dProto)
			}
			if late := viaHTTP.Status == kvproto.StatusDeadlineExceeded; late != (dHTTP[surfHTTP] != [nShedStages]uint64{}) {
				t.Errorf("%s / %s: deadline status %v but shed counters moved by %v", sc.name, st.name, viaHTTP.Status, dHTTP[surfHTTP])
			}
		}
		if sc.leave != nil {
			sc.leave()
		}
	}

	// The exposition tells the same story per surface: every stage and
	// every op shows identical counts under surface="http" and "proto".
	_, val := scrape(t, h.ts.Client(), h.ts.URL)
	series := func(format string, a ...any) float64 {
		t.Helper()
		name := fmt.Sprintf(format, a...)
		v, ok := val(name)
		if !ok {
			t.Fatalf("/metrics lacks %s", name)
		}
		return v
	}
	for sg, stage := range shedStageNames {
		hv := series(`stmkvd_deadline_shed_total{stage=%q,surface="http"}`, stage)
		pv := series(`stmkvd_deadline_shed_total{stage=%q,surface="proto"}`, stage)
		if hv != pv || (sg != shedStageDequeue && hv == 0) {
			t.Errorf("deadline sheds at stage %s: http %v, proto %v (want equal, and non-zero past dequeue)", stage, hv, pv)
		}
	}
	for op := kvproto.OpGet; op <= kvproto.OpScan; op++ {
		hv := series(`stmkvd_request_seconds_count{op=%q,surface="http"}`, op.String())
		pv := series(`stmkvd_request_seconds_count{op=%q,surface="proto"}`, op.String())
		if hv != pv || hv == 0 {
			t.Errorf("request latency samples for %v: http %v, proto %v (want equal and non-zero)", op, hv, pv)
		}
	}
}

// TestCodecParityOversizeBatch: a batch over the cap never reaches exec on
// either surface — HTTP answers 413, the wire decoder rejects the frame —
// and both apply the one kvproto.MaxBatchOps.
func TestCodecParityOversizeBatch(t *testing.T) {
	h := newParityHarness(t)
	const n = kvproto.MaxBatchOps + 1
	recorded := func() (n uint64) {
		for surf := range h.s.met.req {
			for _, req := range h.s.met.req[surf] {
				n += req.Snapshot().Count
			}
		}
		return n
	}
	before := recorded()

	var body strings.Builder
	body.WriteString(`{"ops":[`)
	// The wire form by hand: AppendRequest refuses to encode it.
	payload := binary.LittleEndian.AppendUint64(nil, 1)
	payload = append(payload, byte(kvproto.OpBatch))
	payload = binary.LittleEndian.AppendUint32(payload, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"op":"get","key":%d}`, i)
		payload = append(payload, byte(kvproto.OpGet))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(i))
		payload = append(payload, make([]byte, 16)...)
	}
	body.WriteString(`]}`)

	resp, err := h.ts.Client().Post(h.ts.URL+"/batch", "application/json", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize HTTP batch: status %d, want 413", resp.StatusCode)
	}
	wire, err := kvproto.DecodeResponse(h.roundTripPayload(t, payload))
	if err != nil {
		t.Fatal(err)
	}
	if wire.Status != kvproto.StatusError || wire.Msg != kvproto.ErrTooManyOps.Error() {
		t.Errorf("oversize wire batch: (%v, %q), want (error, %q)", wire.Status, wire.Msg, kvproto.ErrTooManyOps)
	}
	if after := recorded(); after != before {
		t.Errorf("oversize batches reached exec: %d requests recorded", after-before)
	}
}

// TestExecArenaExhaustion: the recover layer is part of exec, so both
// surfaces report a full arena from the same place — StatusError on the
// wire, which HTTP renders as its 507.
func TestExecArenaExhaustion(t *testing.T) {
	s, ts := newTestServer(t, Config{SpaceWords: 1 << 10, shards: 1, buckets: 1})
	var wire kvproto.Response
	var k uint64
	for ; k < 1<<12; k++ {
		if s.exec(surfProto, time.Time{}, &kvproto.Request{Op: kvproto.OpPut, Key: k, Val: k}, &wire, nil); wire.Status != kvproto.StatusOK {
			break
		}
	}
	if wire.Status != kvproto.StatusError || wire.Msg != core.ErrSpaceExhausted.Error() {
		t.Fatalf("full arena over the wire: (%v, %q), want (error, %q)", wire.Status, wire.Msg, core.ErrSpaceExhausted)
	}
	// The same key: its bucket's lines are still full, so it needs the
	// line the arena could not give. (A key landing in a free slot of a
	// bucket line would still fit.)
	if code := doJSON(t, ts.Client(), "PUT", ts.URL+fmt.Sprintf("/kv/%d", k), "1", nil); code != http.StatusInsufficientStorage {
		t.Fatalf("full arena over HTTP: status %d, want 507", code)
	}
}

// TestLongBatchAllocs pins what a batch no reader lent its scratch to — a
// spawned binary batch, an HTTP /batch — costs the Go heap: its store ops
// and its results, which are the answer's, live in a pooled carrier, so a
// warmed 1 024-op batch through execInto and back to the pool allocates
// nothing.
func TestLongBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s, _ := newTestServer(t, Config{SpaceWords: 1 << 18, shards: 4, buckets: 64, Snapshots: true})
	req := &kvproto.Request{ID: 1, Op: kvproto.OpBatch, Ops: make([]kvproto.BatchOp, kvproto.MaxBatchOps)}
	for i := range req.Ops {
		req.Ops[i] = kvproto.BatchOp{Op: kvproto.OpPut, Key: uint64(i), Val: uint64(i)}
	}
	var resp kvproto.Response
	run := func() {
		bc := takeCarrier()
		s.execInto(surfProto, time.Time{}, req, &resp, bc, false)
		if resp.Status != kvproto.StatusOK || len(resp.Results) != len(req.Ops) {
			t.Fatalf("batch answered %v (%d results): %s", resp.Status, len(resp.Results), resp.Msg)
		}
		bc.recycle()
	}
	run() // inserts the keys; every later run overwrites them
	if n := testing.AllocsPerRun(50, run); n > 0 {
		t.Fatalf("warmed %d-op batch through execInto: %v allocs, want 0", len(req.Ops), n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	// The bound leaves room for what the server's own goroutines allocate
	// meanwhile; one batch's results alone are 16 KiB.
	if perBatch := (after.TotalAlloc - before.TotalAlloc) / runs; perBatch > 512 {
		t.Fatalf("warmed %d-op batch allocates %d B, want at most 512", len(req.Ops), perBatch)
	}
}
