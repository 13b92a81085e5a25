// Package kvproto is the length-prefixed binary wire protocol of the
// STM-backed key-value store: the hot-path replacement for the HTTP/JSON
// surface, so server-side numbers measure the STM instead of codec
// overhead.
//
// Framing. Every message travels in one frame:
//
//	offset  size  field
//	0       4     payload length N (little-endian uint32, <= MaxFrame)
//	4       4     CRC-32C (Castagnoli) of the payload
//	8       N     payload
//
// A reader that sees a length above MaxFrame or a CRC mismatch has lost
// framing synchronization (or is talking to something that is not this
// protocol — an HTTP request line decodes as an absurd length) and must
// drop the connection; there is no way to resynchronize a byte stream.
//
// Payloads. A request payload is
//
//	id u64 | op u8 | [deadline u32] | body
//
// where bit 7 of the op byte gates the optional deadline field: when
// set, a uint32 RELATIVE deadline budget in milliseconds follows the op
// byte (and must be nonzero — the canonical encoding of "no deadline"
// is a clear flag and no field). The budget re-anchors at server
// receipt, so clock skew cannot expire it in flight. A response payload
// is
//
//	id u64 | op u8 | status u8 | body
//
// with all integers little-endian. The id is chosen by the client and
// echoed verbatim: a connection may carry thousands of requests in
// flight, and responses complete OUT OF ORDER — the id, not arrival
// order, matches a response to its request. Op-specific bodies mirror
// the HTTP data routes (Get/Put/Delete/CAS/Add/Batch/Scan); see
// appendRequestBody / appendResponseBody for the exact layouts. The
// protocol carries data only: counters are read from the HTTP /metrics
// exposition. Op code 8 (a former stats op) is retired and decodes as
// ErrBadOp.
//
// Decoding arbitrary bytes must never panic: DecodeRequest and
// DecodeResponse validate every length and bound before reading, and the
// fuzz targets in this package enforce it.
package kvproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"tinystm/internal/txn"
)

// Frame limits.
const (
	// HeaderSize is the fixed frame header: length + CRC.
	HeaderSize = 8
	// MaxFrame bounds one payload. Large enough for a full Scan response
	// (MaxScanPairs pairs) with room to spare; small enough that a
	// desynchronized or hostile stream cannot make the reader allocate
	// unboundedly.
	MaxFrame = 1 << 20
	// MaxBatchOps bounds one Batch request on both server surfaces: a
	// giant batch is a giant transaction that conflicts with everything.
	MaxBatchOps = 1024
	// MaxScanPairs bounds one Scan response's pair list.
	MaxScanPairs = 4096
)

// Op identifies one operation, mirroring the HTTP endpoint set.
type Op uint8

// The operation set. Batch bodies reuse OpGet..OpAdd as sub-op codes.
const (
	OpGet Op = iota + 1
	OpPut
	OpDelete
	OpCAS
	OpAdd
	OpBatch
	OpScan
	opEnd // one past the last valid op
)

// String returns the op's wire name.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpCAS:
		return "cas"
	case OpAdd:
		return "add"
	case OpBatch:
		return "batch"
	case OpScan:
		return "scan"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Valid reports whether o names a real operation.
func (o Op) Valid() bool { return o >= OpGet && o < opEnd }

// opDeadlineFlag is bit 7 of a request's op byte: set when the optional
// uint32 deadline field follows. The op code proper lives in bits 0-6.
const opDeadlineFlag = 0x80

// Status is a response's outcome class.
type Status uint8

const (
	// StatusOK carries the op's result (which may still be "not found" —
	// that is data, not an error).
	StatusOK Status = iota
	// StatusUnavailable means the server cannot serve the op right now —
	// WAL replay, degraded read-only mode, a durability wait that failed,
	// shutdown. Retryable: the HTTP analogue is 503.
	StatusUnavailable
	// StatusError is a terminal failure: malformed request, op the server
	// does not understand, arena exhaustion. Not retryable.
	StatusError
	// StatusDeadlineExceeded means the request's deadline budget expired
	// before the server finished (or started) it and the work was shed.
	// Not retryable as-is: the client's budget is spent.
	StatusDeadlineExceeded
	statusEnd
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusUnavailable:
		return "unavailable"
	case StatusError:
		return "error"
	case StatusDeadlineExceeded:
		return "deadline_exceeded"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// BatchOp is one sub-operation of a Batch request. Val is the value for
// OpPut, the delta for OpAdd and the new value for OpCAS; Old is OpCAS's
// expected value.
type BatchOp struct {
	Op       Op
	Key, Val uint64
	Old      uint64
}

// BatchResult is the outcome of one Batch sub-operation: the store's own
// result type, so the server encodes the slots the store filled.
type BatchResult = txn.OpResult

// KV is one Scan pair: the store's own pair type, so the server hands a
// scan's pairs to the response without copying them.
type KV = txn.KV

// Request is one decoded request. Exactly the fields named by Op are
// meaningful; the rest stay zero on the wire.
type Request struct {
	ID uint64
	Op Op
	// Key/Val/Old serve Get, Put, Delete, CAS and Add (Val is Put's
	// value, Add's delta, CAS's new value; Old is CAS's expected value).
	Key, Val, Old uint64
	// TimeoutMs is the optional relative deadline budget in
	// milliseconds; 0 means no deadline (and no wire field).
	TimeoutMs uint32
	// Limit caps a Scan's returned pairs (0: server default).
	Limit uint32
	// Ops is the Batch body.
	Ops []BatchOp
}

// Response is one decoded response.
type Response struct {
	ID     uint64
	Op     Op
	Status Status
	// Msg explains a non-OK status.
	Msg string
	// Found/OK/Val serve the single-key ops (Get: Found+Val; Put: OK =
	// inserted; Delete: Found; CAS: OK; Add: Val).
	Found bool
	OK    bool
	Val   uint64
	// Scan body. Total is the live keys: len(Pairs) when the scan ended
	// before its limit, exact for its snapshot; when it stopped at the
	// limit, the store's key count, which may trail under traffic, and
	// never below len(Pairs).
	Total    uint64
	Snapshot bool
	Pairs    []KV
	// Batch body.
	Results []BatchResult
}

// Wire protocol errors. ErrFrame covers everything that breaks framing
// synchronization (oversized length, CRC mismatch, truncated header);
// decode errors cover a well-framed payload with malformed contents.
var (
	ErrFrameTooLarge = errors.New("kvproto: frame exceeds MaxFrame")
	ErrChecksum      = errors.New("kvproto: frame checksum mismatch")
	ErrTruncated     = errors.New("kvproto: truncated payload")
	ErrBadOp         = errors.New("kvproto: unknown op code")
	ErrTooManyOps    = errors.New("kvproto: batch exceeds MaxBatchOps")
	ErrTooManyPairs  = errors.New("kvproto: scan exceeds MaxScanPairs")
	ErrTrailingBytes = errors.New("kvproto: trailing bytes after payload")
	ErrReservedBits  = errors.New("kvproto: reserved flag bits set")
	ErrMsgTooLong    = errors.New("kvproto: error message exceeds cap")
	ErrBadDeadline   = errors.New("kvproto: deadline flag set with zero budget")
)

// maxMsg caps a non-OK response's explanatory message. The codec is
// canonical — every accepted payload re-encodes byte-identically — so
// the decoder rejects what the encoder would not produce.
const maxMsg = 1 << 12

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends the frame header + payload to dst and returns the
// extended slice. The payload must not exceed MaxFrame.
func AppendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrame {
		return dst, ErrFrameTooLarge
	}
	start := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	dst = append(dst, payload...)
	sealFrame(dst[start:])
	return dst, nil
}

// sealFrame fills in the header of frame, whose payload already sits
// behind the HeaderSize bytes reserved for it.
func sealFrame(frame []byte) {
	payload := frame[HeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
}

// AppendResponseFrame appends resp as one whole frame to dst: the payload
// is encoded in place behind a reserved header, which is then back-filled,
// so a sender that owns a write buffer needs no per-response slice. On
// error (an unencodable response, or a payload above MaxFrame) dst is
// returned at its original length.
func AppendResponseFrame(dst []byte, resp *Response) ([]byte, error) {
	start := len(dst)
	out, err := AppendResponse(append(dst, make([]byte, HeaderSize)...), resp)
	if err == nil && len(out)-start-HeaderSize > MaxFrame {
		err = ErrFrameTooLarge
	}
	if err != nil {
		return dst[:start], err
	}
	sealFrame(out[start:])
	return out, nil
}

// ReadFrame reads one frame from r, reusing buf when it is large enough,
// and returns the verified payload. Any error invalidates the stream:
// the caller must drop the connection (framing cannot resynchronize).
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The header is read into buf as well: a local array would escape
	// through the io.Reader call and cost one allocation per frame.
	if cap(buf) < HeaderSize {
		buf = make([]byte, HeaderSize)
	}
	hdr := buf[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.Checksum(buf, castagnoli) != sum {
		return nil, ErrChecksum
	}
	return buf, nil
}

// FrameBuffered reports whether the next ReadFrame on r returns without
// reading from the underlying stream: a whole frame is already buffered,
// or a header whose length ReadFrame rejects. A connection loop uses it to
// tell "more requests of this burst are waiting" from "the next read may
// block".
func FrameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < HeaderSize {
		return false
	}
	hdr, _ := r.Peek(HeaderSize) // cannot fail: the bytes are buffered
	n := binary.LittleEndian.Uint32(hdr[0:4])
	return n > MaxFrame || r.Buffered() >= HeaderSize+int(n)
}

// AppendRequest appends req's payload (no frame header) to dst.
func AppendRequest(dst []byte, req *Request) ([]byte, error) {
	if !req.Op.Valid() {
		return dst, ErrBadOp
	}
	dst = binary.LittleEndian.AppendUint64(dst, req.ID)
	opByte := byte(req.Op)
	if req.TimeoutMs > 0 {
		opByte |= opDeadlineFlag
	}
	dst = append(dst, opByte)
	if req.TimeoutMs > 0 {
		dst = binary.LittleEndian.AppendUint32(dst, req.TimeoutMs)
	}
	return appendRequestBody(dst, req)
}

func appendRequestBody(dst []byte, req *Request) ([]byte, error) {
	switch req.Op {
	case OpGet, OpDelete:
		dst = binary.LittleEndian.AppendUint64(dst, req.Key)
	case OpPut, OpAdd:
		dst = binary.LittleEndian.AppendUint64(dst, req.Key)
		dst = binary.LittleEndian.AppendUint64(dst, req.Val)
	case OpCAS:
		dst = binary.LittleEndian.AppendUint64(dst, req.Key)
		dst = binary.LittleEndian.AppendUint64(dst, req.Old)
		dst = binary.LittleEndian.AppendUint64(dst, req.Val)
	case OpScan:
		dst = binary.LittleEndian.AppendUint32(dst, req.Limit)
	case OpBatch:
		if len(req.Ops) > MaxBatchOps {
			return dst, ErrTooManyOps
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Ops)))
		for _, o := range req.Ops {
			if o.Op < OpGet || o.Op > OpAdd {
				return dst, ErrBadOp
			}
			dst = append(dst, byte(o.Op))
			dst = binary.LittleEndian.AppendUint64(dst, o.Key)
			dst = binary.LittleEndian.AppendUint64(dst, o.Val)
			dst = binary.LittleEndian.AppendUint64(dst, o.Old)
		}
	}
	return dst, nil
}

// DecodeRequest parses one request payload. It never panics on malformed
// input and rejects trailing bytes (a frame carries exactly one message).
func DecodeRequest(p []byte) (*Request, error) {
	req := &Request{}
	if err := DecodeRequestInto(p, req); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeRequestInto is DecodeRequest into a caller-owned Request, which it
// overwrites whole (nothing of p is retained, so p may be reused at
// once) except that it keeps req.Ops' backing array: a Batch is decoded
// into it when it fits, any other request leaves Ops empty. A caller that
// hands a decoded batch to someone else sets req.Ops to nil first. On error
// req's contents are unspecified.
func DecodeRequestInto(p []byte, req *Request) error {
	d := decoder{buf: p}
	ops := req.Ops[:0]
	*req = Request{Ops: ops}
	req.ID = d.u64()
	opByte := d.u8()
	req.Op = Op(opByte &^ opDeadlineFlag)
	if d.err == nil && !req.Op.Valid() {
		return ErrBadOp
	}
	if opByte&opDeadlineFlag != 0 {
		req.TimeoutMs = d.u32()
		if d.err == nil && req.TimeoutMs == 0 {
			// Canonical: "no deadline" is encoded as a clear flag, so a
			// flagged zero budget is something our encoder never emits.
			return ErrBadDeadline
		}
	}
	switch req.Op {
	case OpGet, OpDelete:
		req.Key = d.u64()
	case OpPut, OpAdd:
		req.Key, req.Val = d.u64(), d.u64()
	case OpCAS:
		req.Key, req.Old, req.Val = d.u64(), d.u64(), d.u64()
	case OpScan:
		req.Limit = d.u32()
	case OpBatch:
		n := d.u32()
		if d.err == nil && n > MaxBatchOps {
			return ErrTooManyOps
		}
		if d.err == nil && int(n)*25 > d.remaining() {
			// Each sub-op is 25 bytes; reject the count before allocating.
			return ErrTruncated
		}
		if d.err == nil {
			if ops == nil || cap(ops) < int(n) {
				ops = make([]BatchOp, n)
			}
			req.Ops = ops[:n]
			for i := range req.Ops {
				o := &req.Ops[i]
				o.Op = Op(d.u8())
				if d.err == nil && (o.Op < OpGet || o.Op > OpAdd) {
					return ErrBadOp
				}
				o.Key, o.Val, o.Old = d.u64(), d.u64(), d.u64()
			}
		}
	}
	_, err := finish(&d, req)
	return err
}

// AppendResponse appends resp's payload (no frame header) to dst.
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	if !resp.Op.Valid() {
		return dst, ErrBadOp
	}
	if resp.Status >= statusEnd {
		return dst, fmt.Errorf("kvproto: invalid status %d", resp.Status)
	}
	dst = binary.LittleEndian.AppendUint64(dst, resp.ID)
	dst = append(dst, byte(resp.Op), byte(resp.Status))
	if resp.Status != StatusOK {
		msg := resp.Msg
		if len(msg) > maxMsg {
			msg = msg[:maxMsg]
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
		return append(dst, msg...), nil
	}
	return appendResponseBody(dst, resp)
}

func appendResponseBody(dst []byte, resp *Response) ([]byte, error) {
	switch resp.Op {
	case OpGet:
		dst = append(dst, flags(resp.Found, resp.OK))
		dst = binary.LittleEndian.AppendUint64(dst, resp.Val)
	case OpPut, OpDelete, OpCAS:
		dst = append(dst, flags(resp.Found, resp.OK))
	case OpAdd:
		dst = binary.LittleEndian.AppendUint64(dst, resp.Val)
	case OpBatch:
		if len(resp.Results) > MaxBatchOps {
			return dst, ErrTooManyOps
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Results)))
		for _, r := range resp.Results {
			dst = append(dst, flags(r.Found, r.OK))
			dst = binary.LittleEndian.AppendUint64(dst, r.Val)
		}
	case OpScan:
		if len(resp.Pairs) > MaxScanPairs {
			return dst, ErrTooManyPairs
		}
		dst = append(dst, flags(resp.Snapshot, false))
		dst = binary.LittleEndian.AppendUint64(dst, resp.Total)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Pairs)))
		for _, kv := range resp.Pairs {
			dst = binary.LittleEndian.AppendUint64(dst, kv.Key)
			dst = binary.LittleEndian.AppendUint64(dst, kv.Val)
		}
	}
	return dst, nil
}

// DecodeResponse parses one response payload; like DecodeRequest it never
// panics and rejects trailing bytes.
func DecodeResponse(p []byte) (*Response, error) {
	d := decoder{buf: p}
	resp := &Response{}
	resp.ID = d.u64()
	resp.Op = Op(d.u8())
	resp.Status = Status(d.u8())
	if d.err == nil && !resp.Op.Valid() {
		return nil, ErrBadOp
	}
	if d.err == nil && resp.Status >= statusEnd {
		return nil, fmt.Errorf("kvproto: invalid status %d", resp.Status)
	}
	if d.err == nil && resp.Status != StatusOK {
		n := d.u16()
		if d.err == nil && int(n) > maxMsg {
			return nil, ErrMsgTooLong
		}
		resp.Msg = string(d.bytes(int(n)))
		return finish(&d, resp)
	}
	switch resp.Op {
	case OpGet:
		resp.Found, resp.OK = d.flags2()
		resp.Val = d.u64()
	case OpPut, OpDelete, OpCAS:
		resp.Found, resp.OK = d.flags2()
	case OpAdd:
		resp.Val = d.u64()
	case OpBatch:
		n := d.u32()
		if d.err == nil && n > MaxBatchOps {
			return nil, ErrTooManyOps
		}
		if d.err == nil && int(n)*9 > d.remaining() {
			return nil, ErrTruncated
		}
		if d.err == nil {
			resp.Results = make([]BatchResult, n)
			for i := range resp.Results {
				resp.Results[i].Found, resp.Results[i].OK = d.flags2()
				resp.Results[i].Val = d.u64()
			}
		}
	case OpScan:
		resp.Snapshot = d.flag1()
		resp.Total = d.u64()
		n := d.u32()
		if d.err == nil && n > MaxScanPairs {
			return nil, ErrTooManyPairs
		}
		if d.err == nil && int(n)*16 > d.remaining() {
			return nil, ErrTruncated
		}
		if d.err == nil && n > 0 {
			resp.Pairs = make([]KV, n)
			for i := range resp.Pairs {
				resp.Pairs[i].Key, resp.Pairs[i].Val = d.u64(), d.u64()
			}
		}
	}
	return finish(&d, resp)
}

// flags packs the two response booleans into one byte; bit 0 is
// Found/Snapshot, bit 1 is OK.
func flags(a, b bool) byte {
	var f byte
	if a {
		f |= 1
	}
	if b {
		f |= 2
	}
	return f
}

func unflags(f byte) (a, b bool) { return f&1 != 0, f&2 != 0 }

// flags2 reads a two-boolean flag byte, rejecting reserved bits (the
// decoder must not accept what the encoder cannot produce).
func (d *decoder) flags2() (a, b bool) {
	f := d.u8()
	if d.err == nil && f&^3 != 0 {
		d.err = ErrReservedBits
	}
	return unflags(f)
}

// flag1 is flags2 for bodies that use only bit 0.
func (d *decoder) flag1() bool {
	f := d.u8()
	if d.err == nil && f&^1 != 0 {
		d.err = ErrReservedBits
	}
	return f&1 != 0
}

// decoder is a bounds-checked little-endian reader: the first short read
// latches ErrTruncated and every later read returns zero, so decode
// logic stays linear with one error check at the end.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) bytes(n int) []byte {
	if d.err != nil || n < 0 || d.remaining() < n {
		if d.err == nil {
			d.err = ErrTruncated
		}
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// finish returns v only when the whole payload was consumed exactly.
func finish[V any](d *decoder, v V) (V, error) {
	var zero V
	if d.err != nil {
		return zero, d.err
	}
	if d.remaining() != 0 {
		return zero, ErrTrailingBytes
	}
	return v, nil
}
