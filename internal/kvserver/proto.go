// The binary codec of the request pipeline: kvproto frames in, exec,
// kvproto frames out. One TCP connection carries many requests in flight
// and is served by one protoConn: a buffered reader, a buffered writer
// behind a mutex, the scratch one request at a time needs, and a list of
// answers that wait for the disk.
//
// Execution rule: try, and spawn on would-park. The connection's reader
// goroutine reads frames through its buffer, so a pipelined burst costs one
// read(2), and runs each request itself unless the server shows it, for
// this request, a reason not to:
//
//   - The reader runs Get, the point updates (Put/Delete/CAS/Add)
//     and any batch of at most shortBatch sub-ops to completion where it
//     stands, lending execInto its scratch: no goroutine, no hand-off, no
//     allocation but a group-durable update's WAL ticket. At the admission
//     gate it does not wait, it tries (Gate.TryEnter): a free slot — the
//     usual case; the gate is there to be full under an abort storm, not in
//     calm — is taken and given back like any other, and a spent budget is
//     shed right there. A connection's short updates thus run one at a
//     time, and the updaters the STM sees at once are the busy connections,
//     not their summed pipeline depth.
//   - Only when the gate has no slot does execInto report that the request
//     would park (having run, shed and counted nothing), and only then does
//     the request get its own goroutine, which runs it again from the top
//     and queues at the gate (EnterUntil) for as long as its budget lasts.
//     A Scan and a batch longer than shortBatch run long whatever the
//     server's state (mayPark) and get a goroutine without the try. At most
//     protoInflight such goroutines exist per connection (the gate bounds
//     updaters across ALL connections), each checks its deadline again when
//     it starts, and stmkvd_proto_spawned_total counts them: on a server
//     without long requests it is how often the gate was actually full.
//
// Acknowledgement rule. Under group durability an update's response must
// not leave before its WAL ticket resolves, and no goroutine parks on a
// ticket to see to that. Whoever ran the op — the reader or an op
// goroutine — puts (ticket, response) on the connection's held list and
// then claims the ticket for the connection (wal.Pending.Claim). The WAL's
// flusher, once a batch is fsynced and all its tickets resolved, tells
// each claiming connection once (deliver), and on the flusher's own
// goroutine the connection takes every held answer whose ticket is done,
// settles them — a failed ticket becomes StatusUnavailable, and the
// request's latency is recorded, so the span covers the wait — and
// writes them in one pass. A ticket that resolved before its claim is
// nobody's to tell: the holder settles and sends that answer itself. At
// most protoInflight answers are unsent per connection, held or on their
// way out; with that many the next holder waits, the reader giving up its
// flush hold first. A read is never held: it may observe a committed
// write whose acknowledgement is still waiting for the disk, exactly as it
// could while that write's goroutine was parked on the ticket.
//
// Responses therefore complete OUT OF ORDER: a parked, long or held request
// never convoys the reads pipelined behind it, and the id the client chose
// is its only matching key.
//
// Flush rule. Every responder encodes its frames straight into the shared
// write buffer; who issues the write(2) is decided by a count of the
// responders that are encoding or about to (protoConn.senders). The
// reader counts itself in for as long as a complete next frame is already
// buffered — more answers of this burst are coming — and out before any
// read that can block, including on a partial frame, and before waiting
// for room for a held answer. Whoever brings the count to zero flushes: one
// write per burst for pipelined load, an immediate one for a ping-pong
// caller.
//
// The flusher's delivery never blocks, or one slow client would stall the
// log for every connection. It only tries the write lock; it encodes into
// the write buffer and leaves the flush to a responder still counted in
// senders when there is one; otherwise it makes one write(2) attempt of
// the frames, from an empty buffer, on the non-blocking socket. Only when
// the lock is busy, the frames outgrow the buffer or the kernel takes less
// than all of them does a goroutine of its own finish the write — with
// the remainder already first in the buffer and the lock passed to it —
// and stmkvd_proto_handoffs_total counts those. The connection's teardown
// waits for every answer to be written, so no delivery outlives it.
package kvserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tinystm/internal/kvproto"
	"tinystm/internal/wal"
)

const (
	// protoInflight bounds one connection's concurrently running op
	// goroutines, and separately its held responses: the pipeline stays
	// thousands deep in the kernel socket buffers, but only this many
	// parked or long ops, and this many answers waiting for the disk,
	// exist at once per connection.
	protoInflight = 256
	// The two fixed buffers a connection owns. A frame larger than the
	// read buffer is still served (ReadFrame reads through it); a response
	// larger than the write buffer is written through.
	protoReadBuf  = 16 << 10
	protoWriteBuf = 64 << 10
	// shortBatch is the longest batch the reader runs itself instead of
	// handing it to a goroutine. What the reader risks is the request
	// pipelined behind the batch, so the bound is the measured crossover of
	// BenchmarkProtoGetBehindBatch — time from the reader picking up a batch
	// of k Adds to its having answered the Get behind it, reader-run vs
	// spawned with an idle core standing by to take the goroutine (2 vCPUs,
	// µs, three runs each):
	//
	//	k        1    2    3    4    5    6    8    16    32
	//	reader   1.4  1.8  2.0  2.3  2.6  2.7  2.7  5.3   8.8
	//	spawned  1.4  1.9  1.9  2.2  2.0  2.1  2.4  2.7   3.1
	//
	// Up to 4 sub-ops the two agree within their run-to-run spread (±0.4);
	// from 5 on the Get is answered sooner behind a hand-off, by 2× at 16. At
	// or below the bound the reader is therefore never the later one, even
	// on a host with cores to spare, and it never pays the hand-off: a
	// goroutine, a copy of the request and ~5 µs of CPU per batch (the whole
	// pair takes 2.3 µs reader-run, 7 µs spawned).
	shortBatch = 4
)

// protoStats carries the binary listener's counters, each exported as an
// stmkvd_proto_* series on /metrics.
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
	//stm:allow-atomic listener accounting outside any transaction
	held atomic.Int64 // responses currently held for a WAL ticket, all connections
	//stm:allow-atomic listener accounting outside any transaction
	spawned atomic.Uint64 // requests handed to a goroutine of their own
	//stm:allow-atomic listener accounting outside any transaction
	handoffs atomic.Uint64 // flusher deliveries finished on a goroutine of their own
}

// ServeProto accepts kvproto connections on l until the listener closes,
// serving each on its own goroutine; the call blocks like http.Serve.
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

// protoConn is one binary connection. The fields down to holding belong
// to the reader goroutine; bw is shared with the op goroutines and the
// deliveries under mu, the held list under hmu.
type protoConn struct {
	s  *Server
	rc syscall.RawConn // the socket, for the flusher's one write attempt; nil: always hand off
	br *bufio.Reader
	// frame is ReadFrame's payload scratch; req and resp are the decode
	// target and the response of the request the reader is handling.
	frame []byte
	req   kvproto.Request
	resp  kvproto.Response
	// scratch is what the reader lends execInto for a short batch.
	scratch readerScratch
	// holding is set while the reader is counted in senders.
	holding bool
	// spareOps carries a spawned batch's decode backing back from its
	// goroutine once the batch has run, for the reader's next decode.
	spareOps chan []kvproto.BatchOp

	// senders counts the responders that are encoding into bw or about
	// to; the one that brings it to zero flushes.
	//stm:allow-atomic flush combining between a connection's responders, outside any transaction
	senders atomic.Int32
	//stm:allow-atomic guards the connection's write buffer, outside any transaction
	mu sync.Mutex
	bw *bufio.Writer

	// slots bounds the op goroutines, wg waits for them at teardown.
	slots chan struct{}
	wg    sync.WaitGroup

	// held lists the responses waiting for their WAL tickets, in the order
	// their ops finished; unsent counts those and the ones a delivery has
	// taken and not yet written. hcond (on hmu) tells a holder that there
	// is room again, and the teardown that nothing is left unsent. owner
	// is how the log tells the connection that tickets it claimed resolved
	// (deliver); ready is deliver's scratch.
	//stm:allow-atomic guards the connection's held responses, outside any transaction
	hmu    sync.Mutex
	hcond  sync.Cond
	held   []heldResp
	unsent int
	owner  wal.Owner
	ready  []heldResp
}

// heldResp is one held answer: what to send once ack's ticket has
// resolved clean.
type heldResp struct {
	resp kvproto.Response
	ack  ackWait
}

// serveProtoConn serves one connection until its stream ends or loses
// framing, then waits for the op goroutines still running and for every
// answer they and the reader left held to be written: each goes into the
// write buffer and out (into an error, if the peer is gone — a failed
// write is sticky in bufio.Writer and never blocks). A held answer waits
// for its ticket even then; the log resolves every ticket, at the latest
// when it closes. Only then does the socket close, so no delivery, and no
// goroutine one handed off, touches it afterwards.
func (s *Server) serveProtoConn(conn net.Conn) {
	defer conn.Close()
	c := &protoConn{
		s:        s,
		br:       bufio.NewReaderSize(conn, protoReadBuf),
		bw:       bufio.NewWriterSize(conn, protoWriteBuf),
		slots:    make(chan struct{}, protoInflight),
		spareOps: make(chan []kvproto.BatchOp, 1),
	}
	if sc, ok := conn.(syscall.Conn); ok {
		c.rc, _ = sc.SyscallConn()
	}
	c.hcond.L = &c.hmu
	c.owner.Resolved = c.deliver
	c.readLoop()
	c.release()
	c.wg.Wait()
	c.hmu.Lock()
	for c.unsent > 0 {
		c.hcond.Wait()
	}
	c.hmu.Unlock()
}

// readLoop runs the connection's requests until a read fails. Any framing
// error — oversized length, CRC mismatch, truncation — ends it: a byte
// stream that lost framing cannot resynchronize.
func (c *protoConn) readLoop() {
	for {
		payload, err := kvproto.ReadFrame(c.br, c.frame)
		if err != nil {
			if err != io.EOF {
				c.s.proto.badFrames.Add(1)
			}
			return
		}
		c.frame = payload
		// With the next request already here, this one's answer can share
		// its write: hold the flush until the buffered burst runs out.
		more := kvproto.FrameBuffered(c.br)
		if more && !c.holding {
			c.senders.Add(1)
			c.holding = true
		}
		if !c.dispatch(payload) {
			return
		}
		if !more {
			c.release() // the next read may block
		}
	}
}

// dispatch decodes one request payload and runs it, here or on a goroutine
// of its own. It reports false when the connection must be dropped.
func (c *protoConn) dispatch(payload []byte) bool {
	s := c.s
	if c.req.Ops == nil {
		select {
		case c.req.Ops = <-c.spareOps:
		default:
		}
	}
	if err := kvproto.DecodeRequestInto(payload, &c.req); err != nil {
		// The frame was intact (CRC passed) but the payload is not a
		// request we understand: answer StatusError when the id is
		// recoverable, then drop the connection — the peer is broken.
		s.proto.badFrames.Add(1)
		if len(payload) >= 8 {
			id := binary.LittleEndian.Uint64(payload[:8])
			c.send(&kvproto.Response{ID: id, Op: kvproto.OpGet, Status: kvproto.StatusError, Msg: err.Error()})
		}
		return false
	}
	// Re-anchor the relative budget to an absolute deadline the moment
	// the request leaves the socket: transit time never counts against
	// it, and the server's own clock is the only one consulted.
	var dl time.Time
	if c.req.TimeoutMs > 0 {
		dl = time.Now().Add(time.Duration(c.req.TimeoutMs) * time.Millisecond)
	}
	if !mayPark(&c.req) {
		if ack := s.execInto(surfProto, dl, &c.req, &c.resp, &c.scratch); !ack.wouldPark {
			s.proto.ops.Add(1)
			c.answer(&c.resp, ack, true)
			return true
		}
	}
	c.spawn(dl)
	return true
}

// spawn hands the decoded request to a goroutine of its own, which may
// wait at the admission gate and run as long as the request is.
func (c *protoConn) spawn(dl time.Time) {
	c.s.proto.spawned.Add(1)
	req := new(kvproto.Request)
	*req = c.req
	c.req.Ops = nil // the goroutine's until it hands them back on spareOps
	select {
	case c.slots <- struct{}{}:
	default:
		// protoInflight ops are running: waiting for one to finish is a
		// block like any other, and their answers must not wait on it.
		c.release()
		c.slots <- struct{}{}
	}
	c.wg.Add(1)
	go func() {
		defer func() { <-c.slots; c.wg.Done() }()
		s := c.s
		var resp kvproto.Response
		// Dequeue check: the op may have sat behind a full pipeline, or
		// behind a busy scheduler. Starting work for a client that already
		// gave up is waste.
		var ack ackWait
		if expired(dl) {
			resp = kvproto.Response{ID: req.ID, Op: req.Op}
			s.shedDeadline(surfProto, shedStageDequeue, &resp)
		} else {
			s.proto.ops.Add(1)
			ack = s.execInto(surfProto, dl, req, &resp, nil)
		}
		if req.Ops != nil {
			select {
			case c.spareOps <- req.Ops:
			default: // the reader has a spare already
			}
		}
		c.answer(&resp, ack, false)
	}()
}

// answer disposes of an executed request's response: sent now, or, when
// execInto left a WAL ticket open, held until the log tells the connection
// the ticket resolved. onReader says the caller is the connection's reader
// goroutine.
func (c *protoConn) answer(resp *kvproto.Response, ack ackWait, onReader bool) {
	if ack.ticket == nil {
		c.send(resp)
		return
	}
	c.hmu.Lock()
	if c.unsent >= protoInflight {
		if onReader {
			// Waiting for room is a block like any other: the answers
			// already in the write buffer must not wait on it.
			c.hmu.Unlock()
			c.release()
			c.hmu.Lock()
		}
		for c.unsent >= protoInflight {
			c.hcond.Wait()
		}
	}
	h := heldResp{resp: *resp, ack: ack}
	if onReader {
		// A reader-run batch answers through the connection's scratch,
		// which the next batch overwrites.
		h.resp.Results = slices.Clone(resp.Results)
	}
	c.held = append(c.held, h)
	c.unsent++
	c.s.proto.held.Add(1)
	c.hmu.Unlock()
	// Claimed only once held: the log tells the owner after the ticket
	// resolves, and what it tells about must be there to be found.
	if !ack.ticket.Claim(&c.owner) {
		c.sendResolved(ack.ticket)
	}
}

// sendResolved sends the held answer whose ticket resolved before it could
// be claimed — unless a delivery for a sibling ticket has taken it already.
func (c *protoConn) sendResolved(t *wal.Pending) {
	c.hmu.Lock()
	i := slices.IndexFunc(c.held, func(h heldResp) bool { return h.ack.ticket == t })
	if i < 0 {
		c.hmu.Unlock()
		return
	}
	h := c.held[i]
	c.held = slices.Delete(c.held, i, i+1)
	c.hmu.Unlock()
	c.s.settle(surfProto, &h.resp, h.ack)
	c.send(&h.resp)
	c.sent(1)
}

// deliver is the connection's wal.Owner.Resolved: on the flusher's
// goroutine, after a batch resolved tickets the connection claimed, it
// takes every held answer whose ticket is done, settles them and writes
// them without blocking (see the flush rule above). Tickets resolve a
// batch at a time and in no particular order across op goroutines, so it
// sweeps the whole list rather than a prefix: no answer waits a second
// fsync for an older neighbour.
func (c *protoConn) deliver() {
	c.hmu.Lock()
	ready, keep := c.ready[:0], c.held[:0]
	for _, h := range c.held {
		if h.ack.ticket.Done() {
			ready = append(ready, h)
		} else {
			keep = append(keep, h)
		}
	}
	clear(c.held[len(keep):])
	c.held = keep
	c.hmu.Unlock()
	defer func() { clear(ready); c.ready = ready[:0] }()
	if len(ready) == 0 {
		return
	}
	for i := range ready {
		c.s.settle(surfProto, &ready[i].resp, ready[i].ack)
	}
	locked := c.mu.TryLock()
	var frames []byte
	if locked {
		frames = c.bw.AvailableBuffer()
	}
	for i := range ready {
		frames = c.appendResp(frames, &ready[i].resp)
	}
	switch {
	case !locked:
		c.handoff(frames, len(ready), false)
		return
	case len(frames) > c.bw.Available():
		// Outgrew the buffer (and left it): writing it may block.
		c.handoff(frames, len(ready), true)
		return
	case c.senders.Load() > 0 || c.bw.Buffered() > 0:
		// A responder still counted in flushes after us, or one that has
		// just counted out is about to take the lock and flush.
		_, _ = c.bw.Write(frames) // in place: frames is the buffer's free tail
	default:
		n, done := 0, false
		if c.rc != nil {
			n, done = rawWrite(c.rc, frames)
		}
		if !done {
			_, _ = c.bw.Write(frames[n:]) // in place, to the empty buffer's front
			c.handoff(nil, len(ready), true)
			return
		}
	}
	c.mu.Unlock()
	c.sent(len(ready))
}

// handoff finishes a delivery on a goroutine of its own: it writes frames
// after whatever the buffer holds and flushes, taking the write lock
// unless locked says the caller passed it on, then counts the delivery's
// n answers sent.
func (c *protoConn) handoff(frames []byte, n int, locked bool) {
	c.s.proto.handoffs.Add(1)
	go func() {
		if !locked {
			c.mu.Lock()
		}
		_, _ = c.bw.Write(frames)
		_ = c.bw.Flush() // see send
		c.mu.Unlock()
		c.sent(n)
	}()
}

// sent counts n held answers written, making room for holders and letting
// the teardown go once nothing is left unsent.
func (c *protoConn) sent(n int) {
	c.s.proto.held.Add(-int64(n))
	c.hmu.Lock()
	c.unsent -= n
	c.hmu.Unlock()
	c.hcond.Broadcast()
}

// send encodes one response into the write buffer and flushes it unless
// another responder is about to. Write errors are dropped here on purpose:
// bufio.Writer keeps the first one and turns every later write into a
// no-op, and the reader finds out about the dead peer from its own read.
func (c *protoConn) send(resp *kvproto.Response) {
	c.senders.Add(1)
	c.mu.Lock()
	_, _ = c.bw.Write(c.appendResp(c.bw.AvailableBuffer(), resp))
	if c.senders.Add(-1) == 0 {
		_ = c.bw.Flush()
	}
	c.mu.Unlock()
}

// appendResp appends resp's frame to dst and counts a refusal.
func (c *protoConn) appendResp(dst []byte, resp *kvproto.Response) []byte {
	frame, err := kvproto.AppendResponseFrame(dst, resp)
	if err != nil {
		// Only a server bug gets here (a pair list or frame over the
		// protocol's caps), but the client is waiting on this id: answer
		// it with a generic error instead of leaving it to time out.
		resp = &kvproto.Response{ID: resp.ID, Op: resp.Op, Status: kvproto.StatusError, Msg: "response encoding failed"}
		frame, _ = kvproto.AppendResponseFrame(dst, resp)
	}
	if resp.Status != kvproto.StatusOK {
		c.s.proto.errOps.Add(1)
	}
	return frame
}

// release takes the reader out of senders, flushing if that leaves nobody
// to do it. The reader calls it before anything that can block.
func (c *protoConn) release() {
	if !c.holding {
		return
	}
	c.holding = false
	if c.senders.Add(-1) == 0 {
		c.mu.Lock()
		_ = c.bw.Flush() // see send
		c.mu.Unlock()
	}
}
