package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"

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
// position-checkable: a frame is read from its own header and nothing
// else, never by a varint resynchronisation heuristic.
//
// A segment the log could reserve (Reserver) is created at its full size,
// zeros behind the magic, and frames overwrite the zeros front to back;
// sealing cuts it down to magic plus frames. A segment it could not
// reserve grows frame by frame and never holds a zero tail. Both are this
// one format: magic is never zero, so the first frame boundary at which
// only zeros remain is the end of the log. See parseSegment for how a
// crashed write is told from damage once "the file ends early" no longer
// can.
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

// sectorSize is the unit a disk writes whole or not at all. A frame the
// crash caught in flight is missing whole sectors, never part of one.
const sectorSize = 512

// parseSegment walks one segment file and returns its records. Any
// segment but the newest on disk (last) is sealed: magic, then whole
// valid frames to the last byte, and anything else — a short or zero tail
// included — is a CorruptError.
//
// The newest segment may have been reserved ahead of its frames and may
// have been cut down by a crash, so two more endings are accepted there.
// Zeros from some frame boundary to the end of the file are the clean end
// of the log: the part of the reservation never written. And ONE frame may
// be torn — the write the crash caught between write and fsync — in which
// case the good prefix is returned and tornBytes counts from the frame's
// first byte to the last non-zero byte of the file. The flusher starts no
// frame before the one ahead of it is synced, so a torn frame has nothing
// behind it, and some of it is missing; a frame is torn only if
//
//   - the file ends before the frame's header does; or
//   - the header is there, nothing but zeros follows the extent it claims,
//     and the file ends inside that extent or at least one sector of it
//     is still all zero (the rule etcd applies to its preallocated log); or
//   - a sector under the header itself is all zero — the length is then
//     unknown — and nowhere behind it does a whole valid frame begin.
//
// Everything else is a CorruptError, as before: a frame whose sectors all
// carry bytes yet fails its magic, length or checksum was written whole
// and damaged later, and a bad frame with bytes behind it was synced, and
// acked, before those bytes were written. What the sector rule gives up:
// damage to the LAST frame that happens to leave one of its sectors all
// zero reads as torn.
func parseSegment(path string, data []byte, last bool) (recs []Record, tornBytes int, err error) {
	corrupt := func(at int, reason string) ([]Record, int, error) {
		return nil, 0, &CorruptError{Path: path, Offset: at, Reason: reason}
	}
	// end is where content stops: in the newest segment, trailing zeros
	// are reservation (or a frame's own zero bytes, which checkFrame still
	// sees — it reads data, not data[:end]).
	end := len(data)
	if last {
		end = len(bytes.TrimRight(data, "\x00"))
	}
	if end < len(segMagic) {
		// The crash came between creating the segment and the header's
		// fsync: no file header, or part of one. Nothing readable.
		if !last {
			return corrupt(0, "truncated non-final segment")
		}
		if !strings.HasPrefix(segMagic, string(data[:end])) {
			return corrupt(0, "bad segment magic")
		}
		return nil, end, nil
	}
	if string(data[:len(segMagic)]) != segMagic {
		return corrupt(0, "bad segment magic")
	}
	off := len(segMagic)
	for off < end {
		size, payload, reason := checkFrame(data[off:])
		if reason != "" {
			if last && tornFrame(data, off, size, end) {
				return recs, end - off, nil
			}
			return corrupt(off, reason)
		}
		batch, derr := decodePayload(payload)
		if derr != nil {
			return corrupt(off, derr.Error())
		}
		recs = append(recs, batch...)
		off += size
	}
	return recs, 0, nil
}

// checkFrame reads the envelope of the frame rem begins with: its size
// once the header yields one, its payload once the checksum holds, and
// otherwise the reason it cannot be read.
func checkFrame(rem []byte) (size int, payload []byte, reason string) {
	if len(rem) < frameHeaderLen {
		return 0, nil, "truncated frame header"
	}
	if string(rem[:4]) != frameMagic {
		return 0, nil, "bad frame magic"
	}
	plen := int(binary.LittleEndian.Uint32(rem[4:]))
	if plen > maxFramePayload {
		return 0, nil, "implausible frame length"
	}
	size = frameHeaderLen + plen
	if plen < 4 {
		// No room for the record count. Not pedantry: the checksum of no
		// bytes is zero, so a header torn right behind its magic — length
		// zero, checksum zero — would pass for an empty frame.
		return size, nil, "frame too short for a payload"
	}
	if len(rem) < size {
		return size, nil, "truncated frame"
	}
	payload = rem[frameHeaderLen:size]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rem[8:]) {
		return size, nil, "frame checksum mismatch"
	}
	return size, payload, ""
}

// tornFrame applies parseSegment's rule to the unreadable frame at off in
// the newest segment. size is the extent its header claims (0 when the
// header says nothing usable), end the offset behind the last non-zero
// byte of the file.
func tornFrame(data []byte, off, size, end int) bool {
	if len(data)-off < frameHeaderLen {
		return true
	}
	if zeroSector(data, off, off+frameHeaderLen) {
		// Part of the header never landed, so whatever length it shows is
		// not the frame's. All that can still tell this frame from an
		// acked one is a readable frame behind it.
		return !frameBehind(data, off, end)
	}
	if size == 0 || end > off+size {
		return false
	}
	return len(data) < off+size || zeroSector(data, off, off+size)
}

// zeroSector reports whether some sector of the file holds nothing but
// zeros in the part of it that lies inside data[from:to].
func zeroSector(data []byte, from, to int) bool {
	for to = min(to, len(data)); from < to; {
		next := min(to, (from/sectorSize+1)*sectorSize)
		if len(bytes.TrimLeft(data[from:next], "\x00")) == 0 {
			return true
		}
		from = next
	}
	return false
}

// frameBehind reports whether a whole valid frame begins anywhere in
// data(off:end).
func frameBehind(data []byte, off, end int) bool {
	for p := off + 1; p < end; p++ {
		i := bytes.Index(data[p:end], []byte(frameMagic))
		if i < 0 {
			return false
		}
		p += i
		if _, _, reason := checkFrame(data[p:]); reason == "" {
			return true
		}
	}
	return false
}
