// Package kvclient is the pipelined client for the kvproto binary
// protocol. One Client owns one TCP connection and multiplexes any
// number of concurrent callers over it: each call claims a request id,
// registers a completion channel, and the shared writer/reader pair
// streams frames both ways — thousands of requests in flight, responses
// matched by id as they complete out of order. This is what makes the
// binary surface measure the STM instead of connection handling: no
// per-request dial, no per-request goroutine on the server's HTTP mux,
// no JSON.
//
// The client redials lazily: a broken connection fails every in-flight
// call with ErrConn, and the next call dials fresh (one dial at a time —
// concurrent callers wait for the single in-flight dial instead of
// stampeding the server). Status-level unavailability (WAL replay,
// degraded mode, admission refusal) comes back as
// ErrUnavailable — retryable, the 503 analogue — while StatusError is
// terminal.
//
// The client carries the full client-side resilience stack, all opt-in
// via Options: per-op deadlines propagated on the wire (OpTimeout), a
// token-bucket retry budget shared across the connection (Retry), and a
// circuit breaker in front of redial (Breaker). The breaker counts
// failed dials AND connections dying under the client — a breaker that
// only watched dials would never open against a proxy that accepts and
// then resets — and any decoded response closes it.
package kvclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tinystm/internal/kvproto"
	"tinystm/internal/resilience"
)

// Sentinel errors. Wrapped errors carry detail; test with errors.Is.
var (
	// ErrUnavailable is a server-side StatusUnavailable: retry later.
	ErrUnavailable = errors.New("kvclient: server unavailable")
	// ErrConn is a transport failure: the connection died with calls in
	// flight. The calls' outcomes are unknown (a mutation may or may not
	// have committed); the client redials on the next call.
	ErrConn = errors.New("kvclient: connection failed")
	// ErrClosed reports a call on a Close()d client.
	ErrClosed = errors.New("kvclient: client closed")
	// ErrDeadline reports an op that exceeded its OpTimeout — either
	// client-side (no response in time; outcome unknown) or server-side
	// (the server shed it before running it; it did NOT execute).
	ErrDeadline = errors.New("kvclient: deadline exceeded")
	// ErrBreakerOpen reports a call refused locally because the circuit
	// breaker is open: the backend looked dead recently and the cooldown
	// has not elapsed. Nothing was sent.
	ErrBreakerOpen = errors.New("kvclient: circuit breaker open")
)

// Retryable is the default retry classification: transport failures,
// server unavailability and a locally-open breaker are worth retrying
// (the breaker admits its probe when the cooldown lapses); deadline
// errors are not — the op's time budget is already spent.
func Retryable(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrConn) || errors.Is(err, ErrBreakerOpen)
}

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

// Options tune a Client.
type Options struct {
	// MaxInflight bounds concurrently outstanding requests on the
	// connection (default 1024). Callers past the bound block.
	MaxInflight int
	// OpTimeout is the per-op deadline (0: none). It is enforced
	// client-side AND propagated on the wire, so the server sheds the op
	// wherever it is queued when the budget runs out. A client-side
	// timeout also fails the connection (in-flight siblings get ErrConn):
	// a stream that missed a deadline may be wedged mid-frame forever.
	OpTimeout time.Duration
	// Retry enables automatic retries of Retryable errors under a
	// token-bucket budget (nil: no retries). A nil Retry.Retryable takes
	// the package's Retryable; set Retry.Budget to share one budget
	// across clients.
	Retry *resilience.RetryConfig
	// Breaker enables a circuit breaker in front of redial (nil: none).
	Breaker *resilience.BreakerConfig
}

func (o Options) withDefaults() Options {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 1024
	}
	return o
}

// Client is a pipelined kvproto client. Safe for concurrent use; the
// zero value is not usable, call New.
type Client struct {
	addr string
	opts Options

	// inflight is the pipelining bound, shared across redials.
	inflight chan struct{}

	retrier *resilience.Retrier
	breaker *resilience.Breaker

	//stm:allow-atomic client-side connection bookkeeping; no STM in this process
	mu      sync.Mutex
	conn    *clientConn // current connection, nil before first use / after failure
	dialing *dialState  // single-flight dial in progress, nil otherwise
	nextID  uint64
	closed  bool
}

// dialState is one single-flight dial: concurrent callers wait on done
// and read conn/err afterwards (written before close(done)).
type dialState struct {
	done chan struct{}
	conn *clientConn
	err  error
}

// clientConn is one connection generation: its socket, writer queue and
// pending-call table die together, so a redial can never cross-deliver
// a stale response to a new call.
type clientConn struct {
	c      net.Conn
	out    chan []byte
	dead   chan struct{} // closed by fail(); unblocks the writer and senders
	onFail func(error)   // breaker notification hook, called once

	//stm:allow-atomic guards the pending-call table on the client side
	mu      sync.Mutex
	pending map[uint64]chan outcome
	err     error // set once broken; guards against late registrations
}

// outcome is what a waiting call receives.
type outcome struct {
	resp *kvproto.Response
	err  error
}

// New builds a client for addr ("host:port"). The connection is dialed
// lazily on first use.
func New(addr string, opts Options) *Client {
	opts = opts.withDefaults()
	c := &Client{
		addr:     addr,
		opts:     opts,
		inflight: make(chan struct{}, opts.MaxInflight),
	}
	if opts.Retry != nil {
		rc := *opts.Retry
		if rc.Retryable == nil {
			rc.Retryable = Retryable
		}
		c.retrier = resilience.NewRetrier(rc)
	}
	if opts.Breaker != nil {
		c.breaker = resilience.NewBreaker(opts.Breaker)
	}
	return c
}

// Close fails in-flight calls and tears down the connection. The client
// cannot be reused. Close never blocks behind an in-flight dial; the
// dialer notices and discards its fresh connection.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn != nil {
		conn.fail(ErrClosed)
	}
}

// getConn returns the live connection, dialing when necessary. Dials
// are single-flight: one caller dials, everyone else waits for its
// result — a dead server costs one connection attempt per redial, not
// one per blocked caller.
func (c *Client) getConn() (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.conn != nil {
		conn := c.conn
		select {
		case <-conn.dead:
			// Broken, but its reader has not detached it yet: handing it
			// out again would fail this call — and every retry that beats
			// the reader to c.mu — without ever trying the server.
			c.conn = nil
		default:
			c.mu.Unlock()
			return conn, nil
		}
	}
	if st := c.dialing; st != nil {
		c.mu.Unlock()
		<-st.done
		return st.conn, st.err
	}
	st := &dialState{done: make(chan struct{})}
	c.dialing = st
	c.mu.Unlock()

	conn, err := c.dial()

	c.mu.Lock()
	c.dialing = nil
	closedNow := c.closed
	if err == nil && !closedNow {
		c.conn = conn
	}
	c.mu.Unlock()
	if err == nil && closedNow {
		conn.fail(ErrClosed)
		conn, err = nil, ErrClosed
	}
	st.conn, st.err = conn, err
	close(st.done)
	return conn, err
}

// dial establishes one connection generation, consulting the breaker.
func (c *Client) dial() (*clientConn, error) {
	if c.breaker != nil && !c.breaker.Allow() {
		return nil, fmt.Errorf("%w: %s", ErrBreakerOpen, c.addr)
	}
	sock, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		if c.breaker != nil {
			c.breaker.Failure()
		}
		return nil, fmt.Errorf("%w: dial %s: %v", ErrConn, c.addr, err)
	}
	conn := &clientConn{
		c:       sock,
		out:     make(chan []byte, c.opts.MaxInflight),
		dead:    make(chan struct{}),
		pending: make(map[uint64]chan outcome),
		onFail: func(err error) {
			// A connection dying under us is a breaker failure; our own
			// Close is not.
			if c.breaker != nil && !errors.Is(err, ErrClosed) {
				c.breaker.Failure()
			}
		},
	}
	go conn.writeLoop()
	go func() {
		conn.readLoop()
		// The connection is dead; detach it so the next call redials.
		c.mu.Lock()
		if c.conn == conn {
			c.conn = nil
		}
		c.mu.Unlock()
	}()
	return conn, nil
}

// writeLoop streams queued frames out, flushing only when the queue runs
// dry: pipelined callers share flushes, a lone caller flushes at once.
func (cc *clientConn) writeLoop() {
	bw := bufio.NewWriterSize(cc.c, 64<<10)
	for {
		var frame []byte
		select {
		case frame = <-cc.out:
		case <-cc.dead:
			return
		}
		if _, err := bw.Write(frame); err != nil {
			cc.fail(fmt.Errorf("%w: write: %v", ErrConn, err))
			return
		}
		if len(cc.out) == 0 {
			if err := bw.Flush(); err != nil {
				cc.fail(fmt.Errorf("%w: flush: %v", ErrConn, err))
				return
			}
		}
	}
}

// readLoop matches responses to waiting calls by id until the stream
// breaks, then fails everything still pending.
func (cc *clientConn) readLoop() {
	var buf []byte
	for {
		payload, err := kvproto.ReadFrame(cc.c, buf)
		if err != nil {
			cc.fail(fmt.Errorf("%w: read: %v", ErrConn, err))
			return
		}
		buf = payload
		resp, err := kvproto.DecodeResponse(payload)
		if err != nil {
			cc.fail(fmt.Errorf("%w: decode: %v", ErrConn, err))
			return
		}
		cc.mu.Lock()
		ch, ok := cc.pending[resp.ID]
		if ok {
			delete(cc.pending, resp.ID)
		}
		cc.mu.Unlock()
		if ok {
			ch <- outcome{resp: resp}
		}
	}
}

// fail breaks the connection once: closes the socket, fails every
// pending call, and poisons the table against late registrations. Every
// pending channel is buffered, so delivery never blocks and callers
// that already gave up (op timeout) cost nothing.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err != nil {
		cc.mu.Unlock()
		return
	}
	cc.err = err
	pending := cc.pending
	cc.pending = nil
	cc.mu.Unlock()
	close(cc.dead)
	cc.c.Close()
	if cc.onFail != nil {
		cc.onFail(err)
	}
	for _, ch := range pending {
		ch <- outcome{err: err}
	}
}

// register claims a slot in the pending table; fails fast on a broken
// connection.
func (cc *clientConn) register(id uint64, ch chan outcome) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err != nil {
		return cc.err
	}
	cc.pending[id] = ch
	return nil
}

// roundTrip sends one request and waits for its response, retrying
// under the budget when configured. Concurrent roundTrips pipeline on
// the shared connection.
func (c *Client) roundTrip(req *kvproto.Request) (*kvproto.Response, error) {
	if c.retrier == nil {
		return c.attempt(req)
	}
	var resp *kvproto.Response
	err := c.retrier.Do(func() error {
		var aerr error
		resp, aerr = c.attempt(req)
		return aerr
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// attempt is one send/receive try. The req's ID is (re)assigned here, so
// a retried request is a fresh id on whatever connection is current.
func (c *Client) attempt(req *kvproto.Request) (*kvproto.Response, error) {
	c.inflight <- struct{}{}
	defer func() { <-c.inflight }()

	var timeout <-chan time.Time
	if c.opts.OpTimeout > 0 {
		req.TimeoutMs = resilience.TimeoutMs(c.opts.OpTimeout)
		timer := time.NewTimer(c.opts.OpTimeout)
		defer timer.Stop()
		timeout = timer.C
	}

	conn, err := c.getConn()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.nextID++
	req.ID = c.nextID
	c.mu.Unlock()

	payload, err := kvproto.AppendRequest(nil, req)
	if err != nil {
		return nil, err
	}
	frame, err := kvproto.AppendFrame(nil, payload)
	if err != nil {
		return nil, err
	}
	ch := make(chan outcome, 1)
	if err := conn.register(req.ID, ch); err != nil {
		return nil, err
	}
	// A dead connection has already delivered this call's failure to ch;
	// the select keeps the send from blocking on a writer that is gone.
	//
	// An op timeout fails the WHOLE connection, not just this call: the
	// stream is FIFO per direction, and a stream that did not deliver in
	// time may be wedged mid-frame forever (a corrupted length prefix
	// stalls ReadFrame indefinitely — the CRC only vets a frame once its
	// claimed length has arrived). Redial is cheap; trusting a stuck
	// stream is not.
	select {
	case conn.out <- frame:
	case <-conn.dead:
	case <-timeout:
		conn.fail(fmt.Errorf("%w: op timed out after %v before send; stream no longer trusted", ErrConn, c.opts.OpTimeout))
		return nil, fmt.Errorf("%w: %v elapsed before send", ErrDeadline, c.opts.OpTimeout)
	}
	var out outcome
	select {
	case out = <-ch:
	case <-timeout:
		conn.fail(fmt.Errorf("%w: op timed out after %v; stream no longer trusted", ErrConn, c.opts.OpTimeout))
		return nil, fmt.Errorf("%w: no response within %v", ErrDeadline, c.opts.OpTimeout)
	}
	if out.err != nil {
		return nil, out.err
	}
	// Any decoded response proves the server end-to-end healthy.
	if c.breaker != nil {
		c.breaker.Success()
	}
	switch out.resp.Status {
	case kvproto.StatusOK:
		return out.resp, nil
	case kvproto.StatusUnavailable:
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, out.resp.Msg)
	case kvproto.StatusDeadlineExceeded:
		return nil, fmt.Errorf("%w: server shed: %s", ErrDeadline, out.resp.Msg)
	default:
		return nil, fmt.Errorf("kvclient: server error: %s", out.resp.Msg)
	}
}

// ResilienceStats snapshots the client's retry and breaker activity.
type ResilienceStats struct {
	// Retries counts retry attempts performed.
	Retries uint64
	// Breaker is the transition counters and BreakerState the current
	// position ("" when no breaker is configured).
	Breaker      resilience.BreakerCounts
	BreakerState string
}

// ResilienceStats reports retry/breaker counters for summaries.
func (c *Client) ResilienceStats() ResilienceStats {
	var st ResilienceStats
	if c.retrier != nil {
		st.Retries = c.retrier.Retries()
	}
	if c.breaker != nil {
		st.Breaker = c.breaker.Counts()
		st.BreakerState = c.breaker.State().String()
	}
	return st
}

// Get reads one key.
func (c *Client) Get(key uint64) (val uint64, found bool, err error) {
	resp, err := c.roundTrip(&kvproto.Request{Op: kvproto.OpGet, Key: key})
	if err != nil {
		return 0, false, err
	}
	return resp.Val, resp.Found, nil
}

// Put upserts key; inserted reports whether it was absent.
func (c *Client) Put(key, val uint64) (inserted bool, err error) {
	resp, err := c.roundTrip(&kvproto.Request{Op: kvproto.OpPut, Key: key, Val: val})
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// Delete removes key; found reports whether it existed.
func (c *Client) Delete(key uint64) (found bool, err error) {
	resp, err := c.roundTrip(&kvproto.Request{Op: kvproto.OpDelete, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Found, nil
}

// CAS swaps key from old to new atomically.
func (c *Client) CAS(key, old, new uint64) (ok bool, err error) {
	resp, err := c.roundTrip(&kvproto.Request{Op: kvproto.OpCAS, Key: key, Old: old, Val: new})
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// Add atomically adds delta to key (missing keys start at zero) and
// returns the new value.
func (c *Client) Add(key, delta uint64) (val uint64, err error) {
	resp, err := c.roundTrip(&kvproto.Request{Op: kvproto.OpAdd, Key: key, Val: delta})
	if err != nil {
		return 0, err
	}
	return resp.Val, nil
}

// Batch runs ops as one atomic transaction.
func (c *Client) Batch(ops []kvproto.BatchOp) ([]kvproto.BatchResult, error) {
	resp, err := c.roundTrip(&kvproto.Request{Op: kvproto.OpBatch, Ops: ops})
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Scan returns up to limit pairs (0: server default) plus the exact
// total key count and whether the walk ran as a snapshot.
func (c *Client) Scan(limit uint32) (pairs []kvproto.KV, total uint64, snapshot bool, err error) {
	resp, err := c.roundTrip(&kvproto.Request{Op: kvproto.OpScan, Limit: limit})
	if err != nil {
		return nil, 0, false, err
	}
	return resp.Pairs, resp.Total, resp.Snapshot, nil
}
