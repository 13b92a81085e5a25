package kvserver

import (
	"encoding/binary"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"tinystm/internal/kvproto"
	"tinystm/internal/resilience"
	"tinystm/internal/wal"
)

func TestHTTPBadTimeoutHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{SpaceWords: 1 << 16})
	c := ts.Client()
	for _, bad := range []string{"bogus", "-5", "1.5", "999999999999"} {
		req, err := http.NewRequest("GET", ts.URL+"/kv/1", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(resilience.TimeoutHeader, bad)
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s=%q answered %d, want 400", resilience.TimeoutHeader, bad, resp.StatusCode)
		}
	}
	// A valid budget on a fast request changes nothing.
	req, _ := http.NewRequest("PUT", ts.URL+"/kv/1", strings.NewReader("7"))
	req.Header.Set(resilience.TimeoutHeader, "5000")
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline-bearing PUT answered %d", resp.StatusCode)
	}
}

// TestHTTPDeadlineShedAtGate holds the admission gate and checks a
// deadline-bearing update is refused 504 instead of queueing forever —
// the acceptance property that an expired request never reaches a
// worker.
func TestHTTPDeadlineShedAtGate(t *testing.T) {
	s, ts := newTestServer(t, Config{SpaceWords: 1 << 16, AdmissionWidth: 1})
	c := ts.Client()

	s.gate.Enter() // occupy the only slot
	req, _ := http.NewRequest("PUT", ts.URL+"/kv/9", strings.NewReader("1"))
	req.Header.Set(resilience.TimeoutHeader, "60")
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("held gate answered %d, want 504", resp.StatusCode)
	}
	if waited := time.Since(t0); waited > 5*time.Second {
		t.Fatalf("shed took %v; the gate queued a corpse", waited)
	}
	if got := s.deadlineShed[surfHTTP][shedStageGate].Load(); got != 1 {
		t.Fatalf("gate-stage shed counter = %d, want 1", got)
	}
	if s.gate.Expired() == 0 {
		t.Fatal("gate did not count the expired claim")
	}
	s.gate.Exit()

	// The gate is healthy afterwards: the same request sails through.
	req, _ = http.NewRequest("PUT", ts.URL+"/kv/9", strings.NewReader("1"))
	req.Header.Set(resilience.TimeoutHeader, "60")
	resp, err = c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release PUT answered %d", resp.StatusCode)
	}

	_, val := scrape(t, c, ts.URL)
	if v, ok := val(`stmkvd_deadline_shed_total{stage="gate",surface="http"}`); !ok || v != 1 {
		t.Fatalf("metrics gate shed = (%v, %v), want 1", v, ok)
	}
	if v, ok := val("stmkvd_admission_expired_total"); !ok || v < 1 {
		t.Fatalf("metrics admission expired = (%v, %v)", v, ok)
	}
}

// TestHTTPDeadlineShedAtOp drives the op-stage checks directly with an
// already-expired deadline: scans and batches must refuse to start.
func TestHTTPDeadlineShedAtOp(t *testing.T) {
	s, _ := newTestServer(t, Config{SpaceWords: 1 << 16})
	past := time.Now().Add(-time.Millisecond)

	r := withDeadline(httptest.NewRequest("GET", "/scan", nil), past)
	w := httptest.NewRecorder()
	s.handleScan(w, r)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired scan answered %d, want 504", w.Code)
	}

	r = withDeadline(httptest.NewRequest("POST", "/batch",
		strings.NewReader(`{"ops":[{"op":"get","key":1}]}`)), past)
	w = httptest.NewRecorder()
	s.handleBatch(w, r)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired batch answered %d, want 504", w.Code)
	}
	if got := s.deadlineShed[surfHTTP][shedStageOp].Load(); got != 2 {
		t.Fatalf("op-stage shed counter = %d, want 2", got)
	}
}

// TestProtoDeadlineShedAtGate sends a deadline-flagged frame at a held
// gate and checks the wire answer is StatusDeadlineExceeded, not a
// stalled worker.
func TestProtoDeadlineShedAtGate(t *testing.T) {
	h := startProto(t, Config{AdmissionWidth: 1})
	if _, err := h.c.Put(1, 1); err != nil {
		t.Fatal(err)
	}

	h.srv.gate.Enter()
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, err := kvproto.AppendRequest(nil, &kvproto.Request{
		ID: 42, Op: kvproto.OpPut, Key: 2, Val: 2, TimeoutMs: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := kvproto.AppendFrame(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	raw, err := kvproto.ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := kvproto.DecodeResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 42 || resp.Status != kvproto.StatusDeadlineExceeded {
		t.Fatalf("held gate answered (id %d, %v, %q), want deadline-exceeded", resp.ID, resp.Status, resp.Msg)
	}
	if got := h.srv.deadlineShed[surfProto][shedStageGate].Load(); got != 1 {
		t.Fatalf("proto gate-stage shed counter = %d, want 1", got)
	}
	h.srv.gate.Exit()

	// The pipelined client still works once the gate frees up.
	if _, err := h.c.Put(3, 3); err != nil {
		t.Fatalf("post-release Put: %v", err)
	}
}

// TestProtoBadFrameIsolation is satellite (c): a desynced frame
// mid-pipeline kills exactly its own connection. A sibling connection's
// pipeline never notices, and the bad frame is counted.
func TestProtoBadFrameIsolation(t *testing.T) {
	h := startProto(t, Config{})
	before := h.srv.proto.badFrames.Load()

	// Connection A, raw: a valid Put, then a well-framed payload with a
	// junk op byte, then another valid Put the server must never run.
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var stream []byte
	good1, err := kvproto.AppendRequest(nil, &kvproto.Request{ID: 1, Op: kvproto.OpPut, Key: 100, Val: 1})
	if err != nil {
		t.Fatal(err)
	}
	stream, _ = kvproto.AppendFrame(stream, good1)
	junk := binary.LittleEndian.AppendUint64(nil, 2)
	junk = append(junk, 0xEE)
	stream, _ = kvproto.AppendFrame(stream, junk)
	good2, err := kvproto.AppendRequest(nil, &kvproto.Request{ID: 3, Op: kvproto.OpPut, Key: 101, Val: 1})
	if err != nil {
		t.Fatal(err)
	}
	stream, _ = kvproto.AppendFrame(stream, good2)
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}

	// A gets its answers for the prefix, an error for the junk, then EOF
	// — never an answer for the post-desync frame.
	sawError := false
	for {
		raw, err := kvproto.ReadFrame(conn, nil)
		if err != nil {
			break
		}
		resp, err := kvproto.DecodeResponse(raw)
		if err != nil {
			t.Fatalf("undecodable response after desync: %v", err)
		}
		if resp.ID == 3 {
			t.Fatal("server executed a frame after the desync")
		}
		if resp.Status == kvproto.StatusError {
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("desynced connection died without a diagnostic")
	}
	if h.srv.proto.badFrames.Load() != before+1 {
		t.Fatalf("bad frames %d -> %d, want +1", before, h.srv.proto.badFrames.Load())
	}

	// Connection B (the harness client) is a different pipeline: fully
	// unaffected, before and after A's death.
	for i := uint64(0); i < 50; i++ {
		if _, err := h.c.Put(i, i); err != nil {
			t.Fatalf("sibling connection broken by A's desync: %v", err)
		}
		if val, found, err := h.c.Get(i); err != nil || !found || val != i {
			t.Fatalf("sibling read (%d, %v, %v)", val, found, err)
		}
	}
}

// statsLeaves flattens a /stats document into its leaves by dotted path.
func statsLeaves(prefix string, doc map[string]any, out map[string]any) {
	for k, v := range doc {
		if sub, ok := v.(map[string]any); ok {
			statsLeaves(prefix+k+".", sub, out)
			continue
		}
		out[prefix+k] = v
	}
}

// statsNumeric is every /stats leaf allowed to be a number: the geometry,
// the recovery story and the three counters bench/ reads from this page.
// Any other count or gauge belongs on /metrics.
func statsNumeric(path string) bool {
	for _, prefix := range []string{"params.", "durability.recovery."} {
		if strings.HasPrefix(path, prefix) {
			return true
		}
	}
	return path == "durability.checkpoints.count" || path == "proto.bad_frames" || path == "proto.err_ops"
}

// TestStatsSections pins /stats to what the server is and how it booted:
// the exact leaf set, for a plain server and for a durable, gated one, and
// which of those leaves may be numbers.
func TestStatsSections(t *testing.T) {
	common := []string{
		"design", "params.locks", "params.shifts", "params.hier",
		"snapshots.enabled", "admission.enabled",
		"durability.mode", "durability.state",
		"proto.bad_frames", "proto.err_ops",
	}
	durable := durableCfg(wal.NewMemFS())
	durable.AdmissionWidth = 8
	for _, tc := range []struct {
		name  string
		cfg   Config
		extra []string
	}{
		{"plain", Config{SpaceWords: 1 << 16}, nil},
		{"durable+gated", durable, []string{
			"durability.recovery.checkpoint_found", "durability.recovery.checkpoint_pairs",
			"durability.recovery.checkpoints_skipped", "durability.recovery.segments",
			"durability.recovery.records", "durability.recovery.ops",
			"durability.recovery.torn_bytes", "durability.checkpoints.count",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.cfg)
			waitReady(t, s)
			var doc map[string]any
			if code := doJSON(t, ts.Client(), "GET", ts.URL+"/stats", "", &doc); code != 200 {
				t.Fatalf("/stats: %d", code)
			}
			leaves := make(map[string]any)
			statsLeaves("", doc, leaves)
			want := slices.Sorted(slices.Values(append(slices.Clone(common), tc.extra...)))
			if got := slices.Sorted(maps.Keys(leaves)); !slices.Equal(got, want) {
				t.Errorf("/stats leaves %v, want exactly %v", got, want)
			}
			for path, v := range leaves {
				if _, num := v.(float64); num && !statsNumeric(path) {
					t.Errorf("/stats %s = %v: a number outside the allowed leaves (it belongs on /metrics)", path, v)
				}
			}
		})
	}
}
