package kvserver

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// The HTTP codec's rungs at handler level: a request through the root
// handler into an httptest recorder, no socket. The shapes are mixed-http's:
// a point read, a 64-key all-Get batch and a 1 024-pair scan of a
// 16 384-key table.

// reusedBody is a request body that can be rewound between iterations.
type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

func benchServer(b *testing.B) http.Handler {
	b.Helper()
	s, err := New(Config{SpaceWords: 1 << 20, Snapshots: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	for k := uint64(0); k < 16384; k++ {
		s.Store().Put(k, k)
	}
	return s.Handler()
}

func benchHandler(b *testing.B, method, path string, payload []byte) {
	h := benchServer(b)
	body := &reusedBody{}
	req := httptest.NewRequest(method, path, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(payload)
		req.Body = body
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
	}
}

func BenchmarkHTTPGet(b *testing.B) { benchHandler(b, http.MethodGet, "/kv/7", nil) }

func BenchmarkHTTPBatch64(b *testing.B) {
	var body bytes.Buffer
	body.WriteString(`{"ops":[`)
	for k := 0; k < 64; k++ {
		if k > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"op":"get","key":%d,"val":0,"old":0}`, 1000+k)
	}
	body.WriteString(`]}`)
	benchHandler(b, http.MethodPost, "/batch", body.Bytes())
}

func BenchmarkHTTPScan1k(b *testing.B) { benchHandler(b, http.MethodGet, "/scan?limit=1024", nil) }
