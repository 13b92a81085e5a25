// The binary codec of the request pipeline: kvproto frames in, exec,
// kvproto frames out. One TCP connection carries many requests in
// flight — the reader dispatches each op to its own goroutine (bounded
// per connection) and the writer streams responses back in COMPLETION
// order, so a slow update never convoys the reads pipelined behind it.
package kvserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tinystm/internal/kvproto"
)

// protoInflight bounds one connection's concurrently executing ops: the
// pipeline stays thousands deep in the kernel socket buffers, but only
// this many transactions run at once per connection (the admission gate
// then bounds updaters across ALL connections).
const protoInflight = 256

// protoStats carries the binary listener's counters for /stats and the
// smoke tests' zero-protocol-errors assertion.
type protoStats struct {
	//stm:allow-atomic listener accounting outside any transaction
	conns atomic.Int64 // currently open connections
	//stm:allow-atomic listener accounting outside any transaction
	accepted atomic.Uint64 // connections accepted in total
	//stm:allow-atomic listener accounting outside any transaction
	ops atomic.Uint64 // requests executed
	//stm:allow-atomic listener accounting outside any transaction
	errOps atomic.Uint64 // responses with a non-OK status
	//stm:allow-atomic listener accounting outside any transaction
	badFrames atomic.Uint64 // connections dropped for framing/decode errors
}

func (p *protoStats) stats() map[string]any {
	return map[string]any{
		"conns":      p.conns.Load(),
		"accepted":   p.accepted.Load(),
		"ops":        p.ops.Load(),
		"err_ops":    p.errOps.Load(),
		"bad_frames": p.badFrames.Load(),
	}
}

// ServeProto accepts kvproto connections on l until the listener closes.
// Each connection gets a reader (frames in, ops dispatched) and a writer
// (responses out, coalesced flushes); the call blocks like http.Serve.
func (s *Server) ServeProto(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.proto.accepted.Add(1)
		s.proto.conns.Add(1)
		go func() {
			defer s.proto.conns.Add(-1)
			s.serveProtoConn(conn)
		}()
	}
}

// serveProtoConn runs one connection's reader loop. Any framing error —
// oversized length, CRC mismatch, truncation — kills the connection:
// a byte stream that lost framing cannot resynchronize.
func (s *Server) serveProtoConn(conn net.Conn) {
	defer conn.Close()

	// The writer drains out. Responses complete out of order by design;
	// the id the client chose is its only matching key. The buffered
	// channel lets op goroutines finish without rendezvousing with the
	// flush, and the writer flushes only when the channel runs dry —
	// group-flush for pipelined load, immediate for ping-pong callers.
	out := make(chan []byte, protoInflight)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriterSize(conn, 64<<10)
		for payload := range out {
			frame, err := kvproto.AppendFrame(nil, payload)
			if err != nil {
				continue // oversized payload is a server bug; drop the response, not the conn
			}
			if _, err := bw.Write(frame); err != nil {
				// Drain without writing: the connection is gone, but op
				// goroutines must never block on send.
				for range out {
				}
				return
			}
			if len(out) == 0 {
				if bw.Flush() != nil {
					for range out {
					}
					return
				}
			}
		}
		bw.Flush()
	}()

	var wg sync.WaitGroup
	slots := make(chan struct{}, protoInflight)
	var buf []byte
	for {
		payload, err := kvproto.ReadFrame(conn, buf)
		if err != nil {
			if err != io.EOF {
				s.proto.badFrames.Add(1)
			}
			break
		}
		buf = payload
		req, err := kvproto.DecodeRequest(payload)
		if err != nil {
			// The frame was intact (CRC passed) but the payload is not a
			// request we understand: answer StatusError when the id is
			// recoverable, then drop the connection — the peer is broken.
			s.proto.badFrames.Add(1)
			if len(payload) >= 8 {
				id := binary.LittleEndian.Uint64(payload[:8])
				s.sendProto(out, &kvproto.Response{ID: id, Op: kvproto.OpGet, Status: kvproto.StatusError, Msg: err.Error()})
			}
			break
		}
		// Re-anchor the relative budget to an absolute deadline the moment
		// the request leaves the socket: transit time never counts against
		// it, and the server's own clock is the only one consulted.
		var dl time.Time
		if req.TimeoutMs > 0 {
			dl = time.Now().Add(time.Duration(req.TimeoutMs) * time.Millisecond)
		}
		slots <- struct{}{}
		wg.Add(1)
		go func(req *kvproto.Request, dl time.Time) {
			defer func() { <-slots; wg.Done() }()
			// Dequeue check: the op may have sat behind a full pipeline
			// (the slots send above blocks when protoInflight ops run).
			// Starting work for a client that already gave up is waste.
			if expired(dl) {
				s.sendProto(out, s.shedDeadline(surfProto, shedStageDequeue,
					&kvproto.Response{ID: req.ID, Op: req.Op}))
				return
			}
			s.proto.ops.Add(1)
			s.sendProto(out, s.exec(surfProto, dl, req))
		}(req, dl)
	}
	wg.Wait()
	close(out)
	<-writerDone
}

// sendProto encodes and enqueues one response.
func (s *Server) sendProto(out chan<- []byte, resp *kvproto.Response) {
	if resp.Status != kvproto.StatusOK {
		s.proto.errOps.Add(1)
	}
	payload, err := kvproto.AppendResponse(nil, resp)
	if err != nil {
		// Encoding our own response can only fail on a server bug
		// (oversized pair list); degrade to a generic error.
		payload, _ = kvproto.AppendResponse(nil, &kvproto.Response{
			ID: resp.ID, Op: resp.Op, Status: kvproto.StatusError, Msg: "response encoding failed",
		})
	}
	out <- payload
}
