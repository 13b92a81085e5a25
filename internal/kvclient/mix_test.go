package kvclient_test

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tinystm/internal/kvclient"
	"tinystm/internal/kvproto"
	"tinystm/internal/kvserver"
	"tinystm/internal/rng"
)

// fakeTarget counts the calls a Mix makes and answers from a script.
type fakeTarget struct {
	gets, puts, cases, batches int
	batchOps                   int
	found                      bool
	getErr                     error
}

func (f *fakeTarget) Get(uint64) (uint64, bool, error) {
	f.gets++
	return 7, f.found, f.getErr
}

func (f *fakeTarget) Put(uint64, uint64) (bool, error) { f.puts++; return false, nil }

func (f *fakeTarget) CAS(_, old, new uint64) (bool, error) {
	f.cases++
	if old != 7 || new != 8 {
		return false, errors.New("CAS not built from the value Get returned")
	}
	return true, nil
}

func (f *fakeTarget) Batch(ops []kvproto.BatchOp) ([]kvproto.BatchResult, error) {
	f.batches++
	f.batchOps += len(ops)
	for _, o := range ops {
		if o.Op != kvproto.OpAdd || o.Val != 1 {
			return nil, errors.New("batch sub-op is not Add 1")
		}
	}
	return make([]kvproto.BatchResult, len(ops)), nil
}

func mustMix(t *testing.T, x kvclient.Mix) *kvclient.Mix {
	t.Helper()
	m, err := kvclient.NewMix(x)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// All four arms are reached, at the configured percentages.
func TestMixDoDrivesAllArms(t *testing.T) {
	m := mustMix(t, kvclient.Mix{Keys: 256, Theta: 0.9, ReadPct: 50, CASPct: 20, BatchPct: 10, BatchSize: 3})
	f := &fakeTarget{found: true}
	r := rng.New(4)
	const n = 20000
	for i := 0; i < n; i++ {
		if err := m.Do(f, r); err != nil {
			t.Fatal(err)
		}
	}
	// Reads are the read arm plus the CAS arm's leading Get.
	near := func(name string, got int, pct float64) {
		t.Helper()
		if want := pct / 100 * n; float64(got) < 0.9*want || float64(got) > 1.1*want {
			t.Errorf("%s: %d calls, want about %.0f (%v%% of %d)", name, got, want, pct, n)
		}
	}
	near("Get", f.gets, 50+20)
	near("CAS", f.cases, 20)
	near("Batch", f.batches, 10)
	near("Put", f.puts, 20)
	if f.batchOps != 3*f.batches {
		t.Errorf("%d batch sub-ops over %d batches, want 3 each", f.batchOps, f.batches)
	}
}

// The CAS arm seeds an absent key with a Put — and only an absent one: a
// Get that FAILED (a 503 from a degraded server, a 504 deadline shed) is
// an error, never a write.
func TestMixDoCASArm(t *testing.T) {
	m := mustMix(t, kvclient.Mix{Keys: 16, CASPct: 100})
	r := rng.New(1)

	absent := &fakeTarget{found: false}
	if err := m.Do(absent, r); err != nil {
		t.Fatal(err)
	}
	if absent.puts != 1 || absent.cases != 0 {
		t.Fatalf("absent key: %d puts, %d CAS, want 1 and 0", absent.puts, absent.cases)
	}

	boom := errors.New("shed")
	failing := &fakeTarget{getErr: boom}
	if err := m.Do(failing, r); !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want the Get's error", err)
	}
	if failing.puts != 0 || failing.cases != 0 {
		t.Fatalf("failed Get issued %d puts, %d CAS; want none", failing.puts, failing.cases)
	}
}

func TestNewMixRejects(t *testing.T) {
	for _, x := range []kvclient.Mix{
		{Theta: 1},
		{Theta: -0.1},
		{ReadPct: 60, CASPct: 30, BatchPct: 20},
		{ReadPct: -1},
	} {
		if _, err := kvclient.NewMix(x); err == nil {
			t.Errorf("NewMix(%+v) accepted", x)
		}
	}
	m := mustMix(t, kvclient.Mix{})
	if m.Keys == 0 || m.BatchSize == 0 {
		t.Errorf("defaults not filled: %+v", m)
	}
}

// The HTTP client speaks kvserver's handler set: every Target call round-
// trips, a missing key is found == false, and a refusal is a typed status
// that matches the binary client's sentinels.
func TestHTTPAgainstServer(t *testing.T) {
	srv, err := kvserver.New(kvserver.Config{SpaceWords: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	h := kvclient.NewHTTP(ts.URL, 1, 0)
	defer h.Close()

	if _, found, err := h.Get(1); err != nil || found {
		t.Fatalf("Get(absent) = found %v, err %v", found, err)
	}
	if inserted, err := h.Put(1, 10); err != nil || !inserted {
		t.Fatalf("Put = inserted %v, err %v", inserted, err)
	}
	if ok, err := h.CAS(1, 10, 11); err != nil || !ok {
		t.Fatalf("CAS = %v, %v", ok, err)
	}
	if ok, err := h.CAS(1, 10, 12); err != nil || ok {
		t.Fatalf("stale CAS = %v, %v", ok, err)
	}
	res, err := h.Batch([]kvproto.BatchOp{
		{Op: kvproto.OpAdd, Key: 1, Val: 4},
		{Op: kvproto.OpCAS, Key: 1, Old: 15, Val: 20},
		{Op: kvproto.OpGet, Key: 1},
	})
	if err != nil || len(res) != 3 || res[0].Val != 15 || !res[1].OK || res[2].Val != 20 {
		t.Fatalf("Batch = %+v, %v", res, err)
	}
	if v, found, err := h.Get(1); err != nil || !found || v != 20 {
		t.Fatalf("Get = %d, %v, %v", v, found, err)
	}

	// An empty batch is the server's 400: terminal, typed, not retryable.
	_, err = h.Batch(nil)
	var se *kvclient.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest || kvclient.Retryable(err) {
		t.Fatalf("empty batch: err = %v, want a non-retryable 400", err)
	}
}

// countingTarget counts the requests a Mix sends through it.
type countingTarget struct {
	kvclient.Target
	n int
}

func (c *countingTarget) Get(key uint64) (uint64, bool, error) {
	c.n++
	return c.Target.Get(key)
}

func (c *countingTarget) Put(key, val uint64) (bool, error) {
	c.n++
	return c.Target.Put(key, val)
}

func (c *countingTarget) CAS(key, old, new uint64) (bool, error) {
	c.n++
	return c.Target.CAS(key, old, new)
}

func (c *countingTarget) Batch(ops []kvproto.BatchOp) ([]kvproto.BatchResult, error) {
	c.n++
	return c.Target.Batch(ops)
}

// A storm mix with all four arms runs clean against one live server over
// both surfaces, each worker on its own connection, and the server's
// request histograms count exactly the requests each surface was sent.
func TestMixAgainstServerBothSurfaces(t *testing.T) {
	srv, err := kvserver.New(kvserver.Config{SpaceWords: 1 << 18, Snapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.ServeProto(l)

	const keys, workers, opsEach = 64, 4, 200
	for k := uint64(0); k < keys; k++ {
		srv.Store().Put(k, 1)
	}
	m := mustMix(t, kvclient.Mix{Keys: keys, Theta: 0.99, ReadPct: 10, CASPct: 30, BatchPct: 30})
	dial := map[string]func() (kvclient.Target, func()){
		"http": func() (kvclient.Target, func()) {
			h := kvclient.NewHTTP(ts.URL, 1, 0)
			return h, h.Close
		},
		"proto": func() (kvclient.Target, func()) {
			c := kvclient.New(l.Addr().String(), kvclient.Options{})
			return c, c.Close
		},
	}
	sent := make(map[string]int)
	for _, surface := range []string{"http", "proto"} {
		var (
			wg   sync.WaitGroup
			reqs [workers]int
			errs atomic.Int64
		)
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				target, hangUp := dial[surface]()
				defer hangUp()
				ct := &countingTarget{Target: target}
				r := rng.NewThread(42, w)
				for range opsEach {
					if err := m.Do(ct, r); err != nil {
						errs.Add(1)
					}
				}
				reqs[w] = ct.n
			}()
		}
		wg.Wait()
		if n := errs.Load(); n != 0 {
			t.Fatalf("%s: %d of %d operations failed on a clean server", surface, n, workers*opsEach)
		}
		for _, n := range reqs {
			sent[surface] += n
		}
	}
	if c := srv.TM().Stats().Commits; c == 0 {
		t.Fatal("the server committed nothing")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	counted := make(map[string]int)
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "stmkvd_request_seconds_count{") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.Atoi(line[sp+1:])
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		for surface := range sent {
			if strings.Contains(line[:sp], `surface="`+surface+`"`) {
				counted[surface] += v
			}
		}
	}
	for surface, n := range sent {
		if n == 0 || counted[surface] != n {
			t.Errorf("%s: sent %d requests, stmkvd_request_seconds_count sums to %d", surface, n, counted[surface])
		}
	}
}

// X-Timeout-Ms rides on every request, and the statuses a server sheds
// with map onto the client's sentinels.
func TestHTTPDeadlineHeaderAndStatusErrors(t *testing.T) {
	headers := make(chan string, 2) // one per request below
	var code atomic.Int32
	code.Store(http.StatusServiceUnavailable)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		headers <- r.Header.Get("X-Timeout-Ms")
		http.Error(w, "no", int(code.Load()))
	}))
	defer ts.Close()
	h := kvclient.NewHTTP(ts.URL, 1, 1500*time.Millisecond)
	defer h.Close()

	_, _, err := h.Get(1)
	if header := <-headers; header != "1500" {
		t.Fatalf("X-Timeout-Ms = %q, want 1500", header)
	}
	if !errors.Is(err, kvclient.ErrUnavailable) || !kvclient.Retryable(err) {
		t.Fatalf("503: err = %v, want retryable ErrUnavailable", err)
	}
	code.Store(http.StatusGatewayTimeout)
	if _, err = h.Put(1, 1); !errors.Is(err, kvclient.ErrDeadline) || kvclient.Retryable(err) {
		t.Fatalf("504: err = %v, want non-retryable ErrDeadline", err)
	}

	// A server that never answers runs into the local timeout: the budget
	// is spent, so no retry.
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer stuck.Close()
	slow := kvclient.NewHTTP(stuck.URL, 1, time.Millisecond)
	defer slow.Close()
	if _, _, err := slow.Get(1); !errors.Is(err, kvclient.ErrDeadline) || kvclient.Retryable(err) {
		t.Fatalf("timed-out request: err = %v, want non-retryable ErrDeadline", err)
	}

	// A dead server is a transport failure, retryable like a dead binary
	// connection — not a status.
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	addr := l.Addr().String()
	l.Close()
	dead := kvclient.NewHTTP("http://"+addr, 1, 0)
	var se *kvclient.StatusError
	if _, _, err := dead.Get(1); !errors.Is(err, kvclient.ErrConn) || errors.As(err, &se) {
		t.Fatalf("dead server: err = %v, want ErrConn", err)
	}
}
