package obs

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// buildFixedRegistry assembles a registry with deterministic contents
// covering every instrument kind, label rendering (sorting, escaping)
// and histogram exposition.
func buildFixedRegistry() *Registry {
	r := NewRegistry()
	r.CounterFunc("test_ops_total", "Operations completed.", nil, func() float64 { return 42 })
	// Two label sets in one family, registered out of sorted order, with
	// label keys given out of sorted order too.
	r.CounterFunc("test_requests_total", "Requests by surface and op.",
		Labels{"op": "put", "surface": "http"}, func() float64 { return 7 })
	r.CounterFunc("test_requests_total", "Requests by surface and op.",
		Labels{"surface": "binary", "op": "get"}, func() float64 { return 3 })
	r.GaugeFunc("test_width", "Current admission width.", nil, func() float64 { return 12 })
	r.CounterFunc("test_derived_total", `Escapes: backslash \ quote " done.`, Labels{"path": `C:\x`, "q": `a"b`},
		func() float64 { return 5 })

	h := NewHistogram()
	for _, v := range []uint64{500, 1_500, 1_500, 40_000, 2_000_000} {
		h.Record(v)
	}
	r.Histogram("test_latency_seconds", "Request latency.\nMulti-line help.", nil,
		h, 1e-9, []uint64{1_000, 10_000, 100_000, 1_000_000})

	sz := NewHistogram()
	for _, v := range []uint64{1, 2, 2, 4, 100} {
		sz.Record(v)
	}
	r.Histogram("test_batch_ops", "Batch sizes.", Labels{"kind": "wal"}, sz, 1, []uint64{1, 2, 4, 8, 64})
	return r
}

func TestExpositionGolden(t *testing.T) {
	var b strings.Builder
	if err := buildFixedRegistry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestHandlerContentType(t *testing.T) {
	rec := httptest.NewRecorder()
	buildFixedRegistry().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_ops_total 42") {
		t.Fatalf("body missing counter sample:\n%s", rec.Body.String())
	}
}

func TestOnScrapeHookRunsPerScrape(t *testing.T) {
	r := NewRegistry()
	n := 0
	var cached float64
	r.OnScrape(func() { n++; cached = float64(n * 10) })
	r.GaugeFunc("test_cached", "Value refreshed by the scrape hook.", nil, func() float64 { return cached })
	var b strings.Builder
	_ = r.WriteText(&b)
	_ = r.WriteText(&b)
	if n != 2 {
		t.Fatalf("hook ran %d times, want 2", n)
	}
	if !strings.Contains(b.String(), "test_cached 20") {
		t.Fatalf("second scrape did not see refreshed cache:\n%s", b.String())
	}
}

func TestRegistryPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	zero := func() float64 { return 0 }
	expectPanic("invalid name", func() { NewRegistry().CounterFunc("bad-name", "", nil, zero) })
	expectPanic("invalid label", func() { NewRegistry().CounterFunc("ok", "", Labels{"bad-key": "v"}, zero) })
	expectPanic("dup labels", func() {
		r := NewRegistry()
		r.CounterFunc("ok_total", "", Labels{"a": "1"}, zero)
		r.CounterFunc("ok_total", "", Labels{"a": "1"}, zero)
	})
	expectPanic("kind conflict", func() {
		r := NewRegistry()
		r.CounterFunc("ok_total", "", nil, zero)
		r.GaugeFunc("ok_total", "", Labels{"a": "1"}, zero)
	})
	expectPanic("nil histogram", func() { NewRegistry().Histogram("h", "", nil, nil, 1, nil) })
	expectPanic("bounds not ascending", func() {
		NewRegistry().Histogram("h", "", nil, NewHistogram(), 1, []uint64{10, 5})
	})
}
