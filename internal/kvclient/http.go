package kvclient

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tinystm/internal/kvproto"
	"tinystm/internal/resilience"
)

// HTTP is the HTTP+JSON client for kvserver's handler set (see that
// package's endpoint table): the same four calls as the binary Client, so
// either can stand behind a Target. Safe for concurrent use.
type HTTP struct {
	base      string
	c         *http.Client
	timeoutMs string // resilience.TimeoutHeader value; "" sends none
}

// NewHTTP builds a client for the server at base ("http://host:port")
// keeping up to conns idle connections — the number of callers that will
// share it. A positive opTimeout rides on every request as X-Timeout-Ms,
// so the server sheds it wherever it is queued when the budget runs out;
// the local abort is given a little slack past it, so the server's 504
// (it knows WHERE the deadline died) usually beats it.
func NewHTTP(base string, conns int, opTimeout time.Duration) *HTTP {
	h := &HTTP{
		base: strings.TrimSuffix(base, "/"),
		c: &http.Client{Transport: &http.Transport{
			MaxIdleConns: conns, MaxIdleConnsPerHost: conns,
		}},
	}
	if opTimeout > 0 {
		h.timeoutMs = strconv.FormatUint(uint64(resilience.TimeoutMs(opTimeout)), 10)
		h.c.Timeout = opTimeout + 250*time.Millisecond
	}
	return h
}

// Close drops the idle connections.
func (h *HTTP) Close() { h.c.CloseIdleConnections() }

// StatusError is a refusal from the HTTP surface, kept typed so a retry
// policy can tell "temporarily unavailable" from a real failure. It
// matches the binary client's sentinels under errors.Is: a 503 is
// ErrUnavailable, a 504 ErrDeadline — Retryable holds on both surfaces.
type StatusError struct {
	Method, Path, Status string
	Code                 int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s %s: %s", e.Method, e.Path, e.Status)
}

func (e *StatusError) Is(target error) bool {
	switch e.Code {
	case http.StatusServiceUnavailable:
		return target == ErrUnavailable
	case http.StatusGatewayTimeout:
		return target == ErrDeadline
	}
	return false
}

// do sends one request and decodes a 200's JSON body into out. A 404 is an
// answer ("no such key"), reported as found == false; any other status is
// a *StatusError. A request that got no complete answer fails as the
// binary client's would: ErrDeadline when the local timeout fired, ErrConn
// for anything else the transport reports (refused, reset, cut mid-reply)
// — outcome unknown, worth retrying.
func (h *HTTP) do(method, path, body string, out any) (found bool, err error) {
	req, err := http.NewRequest(method, h.base+path, strings.NewReader(body))
	if err != nil {
		return false, err
	}
	if h.timeoutMs != "" {
		req.Header.Set(resilience.TimeoutHeader, h.timeoutMs)
	}
	var data []byte
	resp, err := h.c.Do(req)
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return false, fmt.Errorf("%w: %v", ErrDeadline, err)
		}
		return false, fmt.Errorf("%w: %v", ErrConn, err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return true, json.Unmarshal(data, out)
	case http.StatusNotFound:
		return false, nil
	}
	return false, &StatusError{Method: method, Path: path, Status: resp.Status, Code: resp.StatusCode}
}

func keyPath(key uint64) string { return "/kv/" + strconv.FormatUint(key, 10) }

// Get reads one key.
func (h *HTTP) Get(key uint64) (val uint64, found bool, err error) {
	var out struct{ Val uint64 }
	found, err = h.do(http.MethodGet, keyPath(key), "", &out)
	return out.Val, found, err
}

// Put upserts key; inserted reports whether it was absent.
func (h *HTTP) Put(key, val uint64) (inserted bool, err error) {
	var out struct{ Inserted bool }
	_, err = h.do(http.MethodPut, keyPath(key), strconv.FormatUint(val, 10), &out)
	return out.Inserted, err
}

// CAS swaps key from old to new atomically.
func (h *HTTP) CAS(key, old, new uint64) (ok bool, err error) {
	var out struct{ OK bool }
	_, err = h.do(http.MethodPost, keyPath(key)+"/cas", fmt.Sprintf(`{"old":%d,"new":%d}`, old, new), &out)
	return out.OK, err
}

// Batch runs ops as one atomic transaction.
func (h *HTTP) Batch(ops []kvproto.BatchOp) ([]kvproto.BatchResult, error) {
	var b strings.Builder
	b.WriteString(`{"ops":[`)
	for i, o := range ops {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"op":%q,"key":%d,"val":%d,"old":%d}`, o.Op.String(), o.Key, o.Val, o.Old)
	}
	b.WriteString(`]}`)
	var out struct{ Results []kvproto.BatchResult }
	_, err := h.do(http.MethodPost, "/batch", b.String(), &out)
	return out.Results, err
}
