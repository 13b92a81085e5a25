package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"tinystm/internal/txn"
)

// On-disk layout.
//
// Segment files (wal-%020d.seg) open with an 8-byte magic, then carry a
// sequence of frames, one per flushed batch:
//
//	[4] "FRME"
//	[4] payload length, little-endian
//	[4] CRC-32C (Castagnoli) of the payload
//	[n] payload
//
// A payload is a record count followed by fixed-width records:
//
//	[4] record count
//	per record: [8] clock epoch  [8] commit timestamp  [4] op count
//	per op:     [1] kind (0 put, 1 delete)  [8] key  [8] value
//
// Everything little-endian. Fixed-width fields keep parsing trivially
// position-checkable: the torn-tail detector only needs "not enough bytes
// left", never a varint resynchronisation heuristic.
const (
	segMagic   = "TSWAL001"
	frameMagic = "FRME"

	frameHeaderLen = 12
	recHeaderLen   = 8 + 8 + 4
	opLen          = 1 + 8 + 8

	// maxFramePayload bounds a frame at parse time. Any length field
	// above it is corruption (or a torn length word), never a real frame:
	// the flusher cannot produce one this large before rotating.
	maxFramePayload = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one committed transaction's redo contribution: its logical
// ops at commit position (Epoch, TS).
type Record struct {
	Epoch uint64
	TS    uint64
	Ops   []txn.RedoOp
}

// CorruptError reports non-torn damage: a frame or checkpoint that is
// fully present but fails its magic, structure, or checksum. Recovery
// treats it as fatal — unlike a torn tail, it means acked data may be
// unreadable, and silently skipping it would serve a hole.
type CorruptError struct {
	Path   string
	Offset int
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

func le32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func le64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// appendFrame serialises one batch of records as a single frame appended
// to dst: the header is reserved, the payload encoded behind it, and the
// length and checksum filled in last, so a reused dst costs no allocation.
func appendFrame(dst []byte, recs []Record) []byte {
	start := len(dst)
	dst = append(dst, frameMagic...)
	dst = le32(dst, 0) // payload length
	dst = le32(dst, 0) // payload checksum
	dst = le32(dst, uint32(len(recs)))
	for i := range recs {
		r := &recs[i]
		dst = le64(dst, r.Epoch)
		dst = le64(dst, r.TS)
		dst = le32(dst, uint32(len(r.Ops)))
		for _, op := range r.Ops {
			dst = append(dst, byte(op.Kind))
			dst = le64(dst, op.Key)
			dst = le64(dst, op.Val)
		}
	}
	payload := dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+8:], crc32.Checksum(payload, crcTable))
	return dst
}

// decodePayload parses one checksum-verified frame payload. Structural
// errors here mean a writer bug or targeted tampering (the CRC already
// passed), so they surface as corruption.
func decodePayload(p []byte) ([]Record, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("payload shorter than record count")
	}
	n := binary.LittleEndian.Uint32(p)
	p = p[4:]
	// A count the payload cannot hold is a lie: refuse it before sizing
	// anything by it.
	if uint64(n)*recHeaderLen > uint64(len(p)) {
		return nil, fmt.Errorf("record count %d exceeds payload", n)
	}
	recs := make([]Record, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(p) < recHeaderLen {
			return nil, fmt.Errorf("record %d: truncated header", i)
		}
		r := Record{
			Epoch: binary.LittleEndian.Uint64(p),
			TS:    binary.LittleEndian.Uint64(p[8:]),
		}
		nops := binary.LittleEndian.Uint32(p[16:])
		p = p[recHeaderLen:]
		if uint64(len(p)) < uint64(nops)*opLen {
			return nil, fmt.Errorf("record %d: truncated ops", i)
		}
		r.Ops = make([]txn.RedoOp, nops)
		for j := range r.Ops {
			r.Ops[j] = txn.RedoOp{
				Kind: txn.RedoKind(p[0]),
				Key:  binary.LittleEndian.Uint64(p[1:]),
				Val:  binary.LittleEndian.Uint64(p[9:]),
			}
			p = p[opLen:]
		}
		recs = append(recs, r)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%d trailing payload bytes", len(p))
	}
	return recs, nil
}

// parseSegment walks one segment file. last marks the newest segment on
// disk: only there may the data end mid-frame, the signature of a crash
// between write and fsync, in which case the good prefix is returned and
// tornBytes counts what was dropped. Everywhere else — and for any frame
// whose bytes are all present but wrong — the result is a CorruptError.
func parseSegment(path string, data []byte, last bool) (recs []Record, tornBytes int, err error) {
	torn := func(at int) ([]Record, int, error) {
		if last {
			return recs, len(data) - at, nil
		}
		return nil, 0, &CorruptError{Path: path, Offset: at, Reason: "truncated non-final segment"}
	}
	if len(data) < len(segMagic) {
		// Shorter than the file header: a crash between segment creation
		// and the header fsync (or mid-header). Nothing readable.
		return torn(0)
	}
	if string(data[:len(segMagic)]) != segMagic {
		return nil, 0, &CorruptError{Path: path, Offset: 0, Reason: "bad segment magic"}
	}
	off := len(segMagic)
	for off < len(data) {
		rem := data[off:]
		if len(rem) < frameHeaderLen {
			return torn(off)
		}
		if string(rem[:4]) != frameMagic {
			return nil, 0, &CorruptError{Path: path, Offset: off, Reason: "bad frame magic"}
		}
		plen := int(binary.LittleEndian.Uint32(rem[4:]))
		if plen > maxFramePayload {
			return nil, 0, &CorruptError{Path: path, Offset: off, Reason: "implausible frame length"}
		}
		if len(rem) < frameHeaderLen+plen {
			return torn(off)
		}
		wantCRC := binary.LittleEndian.Uint32(rem[8:])
		payload := rem[frameHeaderLen : frameHeaderLen+plen]
		if crc32.Checksum(payload, crcTable) != wantCRC {
			return nil, 0, &CorruptError{Path: path, Offset: off, Reason: "frame checksum mismatch"}
		}
		batch, derr := decodePayload(payload)
		if derr != nil {
			return nil, 0, &CorruptError{Path: path, Offset: off, Reason: derr.Error()}
		}
		recs = append(recs, batch...)
		off += frameHeaderLen + plen
	}
	return recs, 0, nil
}
