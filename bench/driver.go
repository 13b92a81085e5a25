//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tinystm/internal/kvclient"
	"tinystm/internal/kvproto"
)

// Load shape: one generator process, two connections. The binary surface
// pipelines up to 32 requests per connection; HTTP/1.1 keeps one request
// in flight per keep-alive connection.
const (
	genConns       = 2
	binaryInflight = 32
)

// target is one connection's worth of request surface. The generator
// speaks only through it, so the op loop below is shared by both surfaces.
type target interface {
	get(key uint64) (val uint64, found bool, err error)
	put(key, val uint64) error
	add(key, delta uint64) error
	cas(key, old, new uint64) (swapped bool, err error)
	batch(ops []kvproto.BatchOp) ([]kvproto.BatchResult, error)
	scan(limit uint32) (pairs int, err error)
	close()
}

// binTarget drives the kvproto surface through kvclient.
type binTarget struct{ c *kvclient.Client }

func (t binTarget) get(key uint64) (uint64, bool, error) { return t.c.Get(key) }
func (t binTarget) put(key, val uint64) error            { _, err := t.c.Put(key, val); return err }
func (t binTarget) add(key, delta uint64) error          { _, err := t.c.Add(key, delta); return err }
func (t binTarget) cas(key, old, new uint64) (bool, error) {
	return t.c.CAS(key, old, new)
}
func (t binTarget) batch(ops []kvproto.BatchOp) ([]kvproto.BatchResult, error) {
	return t.c.Batch(ops)
}
func (t binTarget) scan(limit uint32) (int, error) {
	pairs, _, _, err := t.c.Scan(limit)
	return len(pairs), err
}
func (t binTarget) close() { t.c.Close() }

// httpTarget drives the HTTP/JSON surface over exactly one keep-alive
// connection.
type httpTarget struct {
	hc   *http.Client
	base string
}

func newHTTPTarget(addr string) *httpTarget {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
	return &httpTarget{hc: &http.Client{Transport: tr}, base: "http://" + addr}
}

// roundTrip sends one request and returns the 200 body; any other status
// is an error (the workloads are built so no request legitimately fails).
func (t *httpTarget) roundTrip(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

func keyPath(key uint64) string { return "/kv/" + strconv.FormatUint(key, 10) }

func (t *httpTarget) get(key uint64) (uint64, bool, error) {
	out, err := t.roundTrip(http.MethodGet, keyPath(key), nil)
	if err != nil {
		return 0, false, err
	}
	var r struct{ Val uint64 }
	if err := json.Unmarshal(out, &r); err != nil {
		return 0, false, err
	}
	return r.Val, true, nil
}

func (t *httpTarget) put(key, val uint64) error {
	_, err := t.roundTrip(http.MethodPut, keyPath(key), strconv.AppendUint(nil, val, 10))
	return err
}

func (t *httpTarget) add(key, delta uint64) error {
	body := append(strconv.AppendUint([]byte(`{"delta":`), delta, 10), '}')
	_, err := t.roundTrip(http.MethodPost, keyPath(key)+"/add", body)
	return err
}

func (t *httpTarget) cas(key, old, new uint64) (bool, error) {
	body := strconv.AppendUint([]byte(`{"old":`), old, 10)
	body = append(strconv.AppendUint(append(body, `,"new":`...), new, 10), '}')
	out, err := t.roundTrip(http.MethodPost, keyPath(key)+"/cas", body)
	if err != nil {
		return false, err
	}
	var r struct{ OK bool }
	if err := json.Unmarshal(out, &r); err != nil {
		return false, err
	}
	return r.OK, nil
}

func (t *httpTarget) batch(ops []kvproto.BatchOp) ([]kvproto.BatchResult, error) {
	body := []byte(`{"ops":[`)
	for i, o := range ops {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"op":"`...)
		body = append(body, o.Op.String()...)
		body = strconv.AppendUint(append(body, `","key":`...), o.Key, 10)
		body = strconv.AppendUint(append(body, `,"val":`...), o.Val, 10)
		body = strconv.AppendUint(append(body, `,"old":`...), o.Old, 10)
		body = append(body, '}')
	}
	body = append(body, `]}`...)
	out, err := t.roundTrip(http.MethodPost, "/batch", body)
	if err != nil {
		return nil, err
	}
	var r struct {
		Results []kvproto.BatchResult
	}
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, err
	}
	return r.Results, nil
}

func (t *httpTarget) scan(limit uint32) (int, error) {
	out, err := t.roundTrip(http.MethodGet, "/scan?limit="+strconv.FormatUint(uint64(limit), 10), nil)
	if err != nil {
		return 0, err
	}
	// The pair list is the bulk of the body; counting its objects is all
	// the generator needs and costs far less than decoding them.
	return bytes.Count(out, []byte(`{"key"`)), nil
}

func (t *httpTarget) close() { t.hc.CloseIdleConnections() }

// ledgerGets is the all-Get batch of every ledger key.
var ledgerGets = func() []kvproto.BatchOp {
	ops := make([]kvproto.BatchOp, ledgerKeys)
	for j := range ops {
		ops[j] = kvproto.BatchOp{Op: kvproto.OpGet, Key: ledgerBase + uint64(j)}
	}
	return ops
}()

// transferOps is a transfer as one atomic batch: +d on one ledger key, -d
// (mod 2^64) on another.
func transferOps(o op) []kvproto.BatchOp {
	return []kvproto.BatchOp{
		{Op: kvproto.OpAdd, Key: ledgerBase + o.key, Val: o.val},
		{Op: kvproto.OpAdd, Key: ledgerBase + o.key2, Val: -o.val},
	}
}

var errLedger = errors.New("ledger invariant violated")

// checkLedger verifies one batchget's results against the invariant: all
// keys present and summing to ledgerSum mod 2^64. Atomic transfers plus
// snapshot isolation mean every batchget, mid-run or final, must pass.
func checkLedger(res []kvproto.BatchResult) error {
	if len(res) != ledgerKeys {
		return fmt.Errorf("%w: %d results, want %d", errLedger, len(res), ledgerKeys)
	}
	var sum uint64
	for j, r := range res {
		if !r.Found {
			return fmt.Errorf("%w: ledger key %d missing", errLedger, j)
		}
		sum += r.Val
	}
	if sum != ledgerSum {
		return fmt.Errorf("%w: sum %d, want %d", errLedger, sum, ledgerSum)
	}
	return nil
}

// send sends op o through t and checks what can be checked from the
// response alone.
func send(t target, o op) error {
	switch o.kind {
	case opGet:
		_, found, err := t.get(o.key)
		if err == nil && !found {
			err = fmt.Errorf("get %d: preloaded key not found", o.key)
		}
		return err
	case opPut:
		return t.put(o.key, o.val)
	case opAdd:
		return t.add(o.key, o.val)
	case opCAS:
		_, err := t.cas(o.key, o.old, o.val)
		return err
	case opTransfer:
		_, err := t.batch(transferOps(o))
		return err
	case opBatchGet:
		res, err := t.batch(ledgerGets)
		if err != nil {
			return err
		}
		return checkLedger(res)
	case opScan:
		n, err := t.scan(scanLimit)
		if err == nil && n != scanLimit {
			err = fmt.Errorf("scan returned %d pairs, want %d", n, scanLimit)
		}
		return err
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// worker is one in-flight request slot. Each owns a witness key only it
// writes, with increasing values; the last acked value must be what a
// final get returns.
type worker struct {
	t          target
	witnessKey uint64
	witnessVal uint64
}

func (w *worker) witness() error {
	if err := w.t.put(w.witnessKey, w.witnessVal+1); err != nil {
		return err
	}
	w.witnessVal++
	return nil
}

// fleet is the generator: its connections, its workers and the shared
// position in the op stream.
type fleet struct {
	g       *gen
	targets []target
	workers []*worker
	// next is the index of the next op of the stream; every phase
	// continues where the previous one stopped.
	//stm:allow-atomic generator-side stream position; the generator runs no transactions
	next atomic.Uint64
	// errs counts failed requests the client saw; ledgerBad counts mid-run
	// batchgets that broke the invariant. firstErr keeps one example.
	//stm:allow-atomic generator-side error accounting
	errs atomic.Uint64
	//stm:allow-atomic generator-side error accounting
	ledgerBad atomic.Uint64
	errOnce   sync.Once
	firstErr  error
}

func newFleet(g *gen, c *child) *fleet {
	f := &fleet{g: g}
	for i := 0; i < genConns; i++ {
		t := newTarget(g.sp, c)
		slots := 1
		if !g.sp.http {
			slots = binaryInflight
		}
		f.targets = append(f.targets, t)
		for s := 0; s < slots; s++ {
			f.workers = append(f.workers, &worker{t: t, witnessKey: witnessBase + uint64(len(f.workers))})
		}
	}
	return f
}

func (f *fleet) close() {
	for _, t := range f.targets {
		t.close()
	}
}

func (f *fleet) fail(err error) {
	f.errs.Add(1)
	f.errOnce.Do(func() { f.firstErr = err })
}

// do sends op o on w's connection. A batchget that came back but breaks
// the ledger invariant is not a failed request: it is counted on its own,
// so the request accounting still matches the server's.
func (f *fleet) do(w *worker, o op) error {
	err := send(w.t, o)
	if errors.Is(err, errLedger) {
		f.ledgerBad.Add(1)
		return nil
	}
	return err
}

// each runs fn once per worker, concurrently, and waits.
func (f *fleet) each(fn func(w *worker)) {
	var wg sync.WaitGroup
	for _, w := range f.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// witnessAll has every worker write its witness key once.
func (f *fleet) witnessAll() {
	f.each(func(w *worker) {
		if err := w.witness(); err != nil {
			f.fail(fmt.Errorf("witness put: %w", err))
		}
	})
}

// satWindow is the closed loop's accounting window: goodput is the median
// of the per-window rates, so a stall of the shared box costs a window or
// two, not the phase.
const satWindow = 250 * time.Millisecond

// closedLoop keeps every slot full for d: a worker sends its next request
// the moment the previous one completes. Returns successes, failures and
// the successes per satWindow (complete windows only).
func (f *fleet) closedLoop(d time.Duration) (ok, failed uint64, perWindow []uint64) {
	nwin := int(d / satWindow)
	//stm:allow-atomic merges the workers' private tallies after the phase
	var mu sync.Mutex
	perWindow = make([]uint64, nwin)
	start := time.Now()
	f.each(func(w *worker) {
		mine := make([]uint64, nwin)
		var good, bad uint64
		for {
			err := f.do(w, f.g.at(f.next.Add(1)-1))
			el := time.Since(start)
			if err != nil {
				f.fail(err)
				bad++
			} else {
				good++
				if win := int(el / satWindow); win < nwin {
					mine[win]++
				}
			}
			if el >= d {
				break
			}
		}
		mu.Lock()
		ok += good
		failed += bad
		for i, c := range mine {
			perWindow[i] += c
		}
		mu.Unlock()
	})
	return ok, failed, perWindow
}

// fanoutPerConn is how many requests of one lock-step round travel on each
// connection; HTTP/1.1 carries one. Rounds of 8 repeated best on the
// two-vCPU sandbox: single requests are at the mercy of where the kernel
// wakes each thread, and 64 at once let the two processes drift in and out
// of step with each other, which moves throughput by a third.
const fanoutPerConn = 4

// stepper drives lock-step rounds against one server: every slot sends one
// request at the same moment and the round ends when the last answer is
// in. A client that fans a page out into a handful of requests and waits
// for all of them sees exactly this time. The pattern is the same in every
// round, so what is left to vary is the host.
type stepper struct {
	f    *fleet
	in   []chan op
	ops  []op
	done chan error
	wg   sync.WaitGroup
}

func (f *fleet) newStepper() *stepper {
	per := len(f.workers) / genConns
	k := fanoutPerConn
	if k > per {
		k = per
	}
	s := &stepper{f: f, ops: make([]op, genConns*k), done: make(chan error, genConns*k)}
	for c := 0; c < genConns; c++ {
		for _, w := range f.workers[c*per : c*per+k] {
			in := make(chan op, 1) // one send per round, so a round never waits on a worker waking up
			s.in = append(s.in, in)
			s.wg.Add(1)
			go func(w *worker) {
				defer s.wg.Done()
				for o := range in {
					s.done <- f.do(w, o)
				}
			}(w)
		}
	}
	return s
}

// round runs one round and returns how long it took and how many of its
// requests failed.
func (s *stepper) round() (took time.Duration, failed uint64) {
	n := uint64(len(s.in))
	base := s.f.next.Add(n) - n
	for i := range s.ops {
		s.ops[i] = s.f.g.at(base + uint64(i))
	}
	t0 := time.Now()
	for i, in := range s.in {
		in <- s.ops[i]
	}
	for range s.in {
		if err := <-s.done; err != nil {
			s.f.fail(err)
			failed++
		}
	}
	return time.Since(t0), failed
}

func (s *stepper) stop() {
	for _, in := range s.in {
		close(in)
	}
	s.wg.Wait()
}

// duetSide is what one server did in a duet.
type duetSide struct {
	roundMs    []float64 // every round, in order
	slice      []int     // the slice each round ran in
	ok, failed uint64
}

// duetSlice is how long one server is driven before the other takes its
// turn: short against the seconds-to-minutes over which the host's speed
// moves, long enough for dozens of rounds.
const duetSlice = 50 * time.Millisecond

// duet drives sut and ref in alternating slices for d: even slices are
// sut's, odd ones ref's. Both are measured by the same generator under the
// same host conditions, a twentieth of a second apart.
func duet(sut, ref *stepper, d time.Duration) (s, r duetSide) {
	steppers := [2]*stepper{sut, ref}
	sides := [2]*duetSide{&s, &r}
	start := time.Now()
	for sl := 0; time.Since(start) < d; sl++ {
		st, side := steppers[sl%2], sides[sl%2]
		for end := time.Now().Add(duetSlice); ; {
			took, failed := st.round()
			side.roundMs = append(side.roundMs, float64(took)/float64(time.Millisecond))
			side.slice = append(side.slice, sl)
			side.ok += uint64(len(st.in)) - failed
			side.failed += failed
			if !time.Now().Before(end) {
				break
			}
		}
	}
	return s, r
}

// arrivalTick is the resolution of the arrival schedule: requests fall due
// on millisecond boundaries, rate/1000 of them at a time. No single thread
// can release arrivals tens of microseconds apart without spinning a core,
// so the schedule itself is stated at the resolution the pacer can keep.
const arrivalTick = time.Millisecond

// sample is one open-loop request's record.
type sample struct {
	due  float64 // seconds after the phase began
	lat  float64 // milliseconds, from due to response
	kind opKind
	ok   bool
}

type openResult struct {
	samples    []sample
	lagMs      []float64 // per arrival: how late the pacer released it
	backlogMax int
	elapsed    time.Duration
}

// openLoop offers requests on a fixed schedule for d at rate per second:
// independent users, so a slow server does not slow the arrivals. Each
// request is timed from the instant it was DUE, so time spent waiting for
// a free slot behind a stall counts against it. Arrivals are never
// skipped; when more than backlogSeconds of schedule is waiting, further
// arrivals are dropped and counted failed.
func (f *fleet) openLoop(d time.Duration, rate float64) openResult {
	const backlogSeconds = 1
	total := int(d.Seconds() * rate)
	res := openResult{samples: make([]sample, total), lagMs: make([]float64, total)}
	jobs := make(chan int, int(rate*backlogSeconds))
	failLat := float64(d.Milliseconds())
	first := f.next.Add(uint64(total)) - uint64(total)
	start := time.Now()
	due := func(n int) time.Duration {
		return time.Duration(float64(n)/rate*float64(time.Second)) / arrivalTick * arrivalTick
	}

	var wg sync.WaitGroup
	for _, w := range f.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for n := range jobs {
				o := f.g.at(first + uint64(n))
				err := f.do(w, o)
				s := sample{due: due(n).Seconds(), kind: o.kind, ok: err == nil}
				s.lat = float64(time.Since(start)-due(n)) / float64(time.Millisecond)
				if err != nil {
					f.fail(err)
					s.lat = failLat
				}
				res.samples[n] = s
			}
		}(w)
	}

	// The pacer owns an OS thread and sleeps in the kernel: the Go
	// runtime rounds sub-millisecond timer waits up to a millisecond when
	// the process is otherwise idle, which would be charged to every
	// request as latency.
	runtime.LockOSThread()
	setTimerSlack(time.Microsecond)
	for n := 0; n < total; {
		now := time.Since(start)
		if wait := due(n) - now; wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil)
			continue
		}
		res.lagMs[n] = float64(now-due(n)) / float64(time.Millisecond)
		select {
		case jobs <- n:
		default: // backlog full: dropped, a failed request
			res.samples[n] = sample{due: due(n).Seconds(), lat: failLat, kind: f.g.at(first + uint64(n)).kind}
		}
		if l := len(jobs); l > res.backlogMax {
			res.backlogMax = l
		}
		n++
	}
	runtime.UnlockOSThread()
	close(jobs)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// setTimerSlack narrows the calling thread's timer slack (Linux pads
// sleeps by 50us by default).
func setTimerSlack(d time.Duration) {
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, uintptr(d.Nanoseconds()), 0)
}
