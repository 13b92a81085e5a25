package kvserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tinystm/internal/kvproto"
	"tinystm/internal/kvstore"
)

// parentBody is the document the handlers built for encoding/json before
// appendBody: the reference appendBody's bytes are held to.
func parentBody(req *kvproto.Request, resp *kvproto.Response) any {
	switch req.Op {
	case kvproto.OpGet:
		return map[string]uint64{"key": req.Key, "val": resp.Val}
	case kvproto.OpPut:
		return map[string]bool{"inserted": resp.OK}
	case kvproto.OpDelete:
		return map[string]bool{"deleted": true}
	case kvproto.OpCAS:
		return map[string]bool{"ok": resp.OK}
	case kvproto.OpAdd:
		return map[string]uint64{"val": resp.Val}
	case kvproto.OpBatch:
		return map[string]any{"results": resp.Results}
	}
	pairs := resp.Pairs
	if pairs == nil {
		pairs = []kvproto.KV{}
	}
	return map[string]any{"keys": resp.Total, "pairs": pairs, "snapshot": resp.Snapshot}
}

func TestAppendBodyMatchesEncodingJSON(t *testing.T) {
	for op := kvproto.OpGet; op <= kvproto.OpScan; op++ {
		for _, v := range []uint64{0, 1, math.MaxUint64} {
			for _, flag := range []bool{false, true} {
				req := &kvproto.Request{Op: op, Key: v}
				full := kvproto.Response{Op: op, Val: v, Found: flag, OK: flag, Total: v, Snapshot: flag,
					Results: []kvproto.BatchResult{{Val: v, Found: flag, OK: !flag}, {Val: ^v, Found: !flag, OK: flag}},
					Pairs:   []kvproto.KV{{Key: v, Val: ^v}, {Key: 0, Val: math.MaxUint64}},
				}
				empty, none := full, full
				empty.Results, empty.Pairs = []kvproto.BatchResult{}, []kvproto.KV{}
				none.Results, none.Pairs = nil, nil
				for _, resp := range []*kvproto.Response{&full, &empty, &none} {
					var want bytes.Buffer
					if err := json.NewEncoder(&want).Encode(parentBody(req, resp)); err != nil {
						t.Fatal(err)
					}
					if got := appendBody([]byte("junk"), req, resp); !bytes.Equal(got[4:], want.Bytes()) {
						t.Errorf("%v %+v:\n got  %s\n want %s", op, resp, got[4:], want.Bytes())
					}
				}
			}
		}
	}
}

// wireOp is the JSON form of one batch operation the handler decoded into
// with encoding/json before batchDecoder: the reference decoding.
type wireOp struct {
	Op  string `json:"op"`
	Key uint64 `json:"key"`
	Val uint64 `json:"val,omitempty"`
	Old uint64 `json:"old,omitempty"`
}

// batchOutcome is what a client can observe of a /batch body's decoding:
// the status it is refused with (200 when it is not), the message of a
// refusal that is not a JSON error, and the ops it runs.
type batchOutcome struct {
	code int
	msg  string
	ops  []kvproto.BatchOp
}

// referenceBatch decodes body the way handleBatch did with encoding/json:
// Decode, then the MaxBatchOps check, then ParseOpKind op by op.
func referenceBatch(body []byte) batchOutcome {
	var doc struct {
		Ops []wireOp `json:"ops"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&doc); err != nil {
		return batchOutcome{code: http.StatusBadRequest}
	}
	if len(doc.Ops) > kvproto.MaxBatchOps {
		return batchOutcome{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("batch exceeds %d ops", kvproto.MaxBatchOps)}
	}
	out := batchOutcome{code: http.StatusOK}
	for _, o := range doc.Ops {
		kind, err := kvstore.ParseOpKind([]byte(o.Op))
		if err != nil {
			return batchOutcome{code: http.StatusBadRequest, msg: err.Error()}
		}
		out.ops = append(out.ops, kvproto.BatchOp{Op: wireOps[kind], Key: o.Key, Val: o.Val, Old: o.Old})
	}
	return out
}

// handBatch decodes body with a pooled batchDecoder, as handleBatch does.
func handBatch(body []byte) batchOutcome {
	d := batchDecoders.Get().(*batchDecoder)
	defer d.release()
	d.body = append(d.body[:0], body...)
	ops, code, err := d.decode()
	switch {
	case err == nil:
		return batchOutcome{code: http.StatusOK, ops: append([]kvproto.BatchOp(nil), ops...)}
	case strings.HasPrefix(err.Error(), "bad body: "):
		return batchOutcome{code: code}
	}
	return batchOutcome{code: code, msg: err.Error()}
}

func sameBatch(a, b batchOutcome) bool {
	if a.code != b.code || a.msg != b.msg || len(a.ops) != len(b.ops) {
		return false
	}
	for i := range a.ops {
		if a.ops[i] != b.ops[i] {
			return false
		}
	}
	return true
}

// batchSeeds are the bodies FuzzBatchBody starts from, each a rule of
// encoding/json's the decoder must follow.
func batchSeeds() []string {
	return []string{
		// What bench/ and kvclient.HTTP send.
		`{"ops":[{"op":"add","key":100005,"val":7,"old":0},{"op":"add","key":100006,"val":18446744073709551609,"old":0}]}`,
		`{"ops":[{"op":"get","key":1,"val":0,"old":0},{"op":"put","key":2,"val":3,"old":0},{"op":"cas","key":2,"val":4,"old":3},{"op":"delete","key":2,"val":0,"old":0}]}`,
		"{\n  \"ops\": [\n    {\n      \"op\": \"put\",\n      \"key\": 1,\n      \"val\": 2\n    }\n  ]\n}\n",
		"\t\r\n {\"ops\" :\t[ {\"op\" : \"get\" , \"key\" : 1 } ] } ",
		`{"OPS":[{"Val":3,"KEY":2,"oP":"cas","Old":1},{"oLd":1,"Op":"incr","kEy":5}]}`,
		`{"meta":{"a":[1,{"b":null}],"c":"x\"y"},"ops":[{"op":"get","key":1,"extra":[[{}]],"z":-1.5e3,"t":true,"f":false}],"tail":[]}`,
		`{"ops":[{"op":"g\u0065t","key":1},{"op":"d\u0065l","key":2}]}`,
		`{"\u006fps":[{"\u006Fp":"del","k\u0065y":9}]}`,
		`{"ops":[{"op":"get","\u212aey":3}]}`,
		"{\"op\u017f\":[{\"op\":\"get\",\"\u212aey\":3}]}",
		`{"ops":[null,{"op":null,"key":null,"val":null,"old":null}]}`,
		`{"ops":[{"op":"put","key":1,"val":5},{"op":"add","key":2,"val":3}],"ops":[{"op":null}],"ops":[null,null]}`,
		`{"ops":[{"op":"put","key":1,"val":5}],"ops":[],"ops":[null]}`,
		`{"ops":[{"op":"get","key":4}],"ops":null}`,
		`{"ops":null}`,
		`null`,
		`null garbage`,
		`{"ops":[{"op":"get","key":-1}]}`,
		`{"ops":[{"op":"get","key":1.0}]}`,
		`{"ops":[{"op":"get","key":1e2}]}`,
		`{"ops":[{"op":"get","key":18446744073709551616}]}`,
		`{"ops":[{"op":"get","key":18446744073709551615}]}`,
		`{"ops":[{"op":"get","key":"5"}]}`,
		`{"ops":[{"op":"get","key":01}]}`,
		`{"ops":[{"op":"get","key":-}]}`,
		`{"ops":[{"op":5,"key":1}]}`,
		`{"ops":{}}`,
		`{"ops":"x"}`,
		`{"ops":[1]}`,
		`{"ops":[[]]}`,
		`{"ops":[{"op":"get","key":1}]}trailing garbage{`,
		`{"ops":[{"op":"get","key":1}]}}`,
		`{"ops":[]}`,
		`{}`,
		`{"ops":[{"op":"zap","key":1}]}`,
		`{"ops":[{"key":1}]}`,
		`{"ops":[{"op":"\ud800get"},{"op":"\ud83d\ude00"},{"op":"\ud83dx"}]}`,
		"{\"ops\":[{\"op\":\"g\xffet\"}]}",
		"{\"ops\":[{\"op\":\"g\x01et\"}]}",
		`{"ops":[{"op":"g\qet"}]}`,
		`{"ops":[{"op":"get\u00"}]}`,
		`{"ops":[{"op":"get","key":1},]}`,
		`{,}`,
		`{"ops":[{"op":"get","key":1}]`,
		`{"ops"`,
		"\xef\xbb\xbf{\"ops\":[]}",
		``,
		`   `,
		`nul`,
		`[]`,
		`"ops"`,
		`123`,
		`true`,
	}
}

// TestBatchBodyLimits holds the decoder to encoding/json at the two limits,
// the op count and the nesting depth, on either side of each. The bodies
// are tens of kilobytes: too slow to minimize as fuzz seeds.
func TestBatchBodyLimits(t *testing.T) {
	many := func(n int, last string) string {
		var b strings.Builder
		b.WriteString(`{"ops":[`)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `{"op":"get","key":%d},`, i)
		}
		return b.String() + last + `]}`
	}
	nest := func(n int) string {
		return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"ops":[{"op":"get","key":1}]}`
	}
	for _, tc := range []struct {
		body string
		code int
	}{
		{many(kvproto.MaxBatchOps-1, `{"op":"put","key":1,"val":2}`), http.StatusOK},
		{many(kvproto.MaxBatchOps, `{"op":"get","key":1}`), http.StatusRequestEntityTooLarge},
		{many(kvproto.MaxBatchOps, `{"op":"zap"}`), http.StatusRequestEntityTooLarge},
		{many(kvproto.MaxBatchOps-1, `{"op":"zap"}`), http.StatusBadRequest},
		{nest(maxJSONDepth - 1), http.StatusOK},
		{nest(maxJSONDepth), http.StatusBadRequest},
	} {
		want, got := referenceBatch([]byte(tc.body)), handBatch([]byte(tc.body))
		if want.code != tc.code || !sameBatch(want, got) {
			t.Errorf("%d-byte body: encoding/json %d %q, batchDecoder %d %q, want both %d",
				len(tc.body), want.code, want.msg, got.code, got.msg, tc.code)
		}
	}
}

// FuzzBatchBody holds the hand-written /batch decoder to encoding/json on
// any body the server would read whole: the same outcome (ok, 400 or 413),
// the same refusal message once the JSON decoded, and the same ops.
func FuzzBatchBody(f *testing.F) {
	for _, s := range batchSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > kvproto.MaxFrame {
			return
		}
		want, got := referenceBatch(body), handBatch(body)
		if !sameBatch(want, got) {
			t.Fatalf("body %q:\n encoding/json %+v\n batchDecoder  %+v", body, want, got)
		}
	})
}

// TestHTTPBodyCap: a body route reads at most kvproto.MaxFrame bytes, the
// binary surface's frame cap. A valid body padded one byte past it is 413
// (at the cap, 200) — for /batch even though encoding/json would have
// stopped reading at the end of the value.
func TestHTTPBodyCap(t *testing.T) {
	_, ts := newTestServer(t, Config{SpaceWords: 1 << 16, shards: 2, buckets: 8})
	for _, rt := range []struct{ method, path, body string }{
		{"POST", "/batch", `{"ops":[{"op":"get","key":1}]}`},
		{"PUT", "/kv/1", "5"},
		{"POST", "/kv/1/cas", `{"old":5,"new":6}`},
		{"POST", "/kv/1/add", `{"delta":1}`},
	} {
		for _, size := range []int{kvproto.MaxFrame, kvproto.MaxFrame + 1} {
			body := strings.Repeat(" ", size-len(rt.body)) + rt.body
			want := http.StatusOK
			if size > kvproto.MaxFrame {
				want = http.StatusRequestEntityTooLarge
			}
			if code := doJSON(t, ts.Client(), rt.method, ts.URL+rt.path, body, nil); code != want {
				t.Errorf("%s %s with a %d-byte body: %d, want %d", rt.method, rt.path, size, code, want)
			}
		}
	}
}

// discardWriter is the least a handler can write to: the header map is
// kept, the body dropped.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestHTTPGetAllocs pins what the HTTP codec costs a point read beyond the
// store's own zero: the mux's path match and the two header values.
func TestHTTPGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s, _ := newTestServer(t, Config{SpaceWords: 1 << 16, shards: 2, buckets: 8})
	s.Store().Put(7, 1)
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/kv/7", nil)
	w := &discardWriter{h: http.Header{}}
	if n := testing.AllocsPerRun(500, func() { h.ServeHTTP(w, req) }); n > 3 {
		t.Fatalf("GET /kv/7 through the handler: %v allocs, want <= 3", n)
	}
}

// TestHTTPBatchAllocs pins a 64-key all-Get /batch, mixed-http's batch
// shape, through the handler: the body is read and decoded by a pooled
// decoder, the batch runs in a pooled carrier whose result slots the body
// is rendered from, and the body renders into a pooled buffer. What is left
// is TestHTTPGetAllocs's three (the mux's path match, the two header
// values) and the body's size cap (http.MaxBytesReader). The parent of the
// carrier allocated the results too: 5.
func TestHTTPBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s, _ := newTestServer(t, Config{SpaceWords: 1 << 16, shards: 2, buckets: 8, Snapshots: true})
	var payload bytes.Buffer
	payload.WriteString(`{"ops":[`)
	for k := 0; k < 64; k++ {
		if k > 0 {
			payload.WriteByte(',')
		}
		s.Store().Put(uint64(k), uint64(k))
		fmt.Fprintf(&payload, `{"op":"get","key":%d}`, k)
	}
	payload.WriteString(`]}`)
	h := s.Handler()
	body := &reusedBody{}
	req := httptest.NewRequest(http.MethodPost, "/batch", nil)
	body.Reset(payload.Bytes())
	req.Body = body
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.HasSuffix(rec.Body.String(), `{"val":63,"found":true,"ok":false}]}`+"\n") {
		t.Fatalf("POST /batch answered %d %q", rec.Code, rec.Body)
	}
	w := &discardWriter{h: http.Header{}}
	n := testing.AllocsPerRun(500, func() {
		body.Reset(payload.Bytes())
		req.Body = body
		h.ServeHTTP(w, req)
	})
	if n > 4 {
		t.Fatalf("POST /batch of 64 Gets through the handler: %v allocs, want <= 4", n)
	}
}
