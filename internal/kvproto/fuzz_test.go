package kvproto

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary byte streams through the full receive
// path — ReadFrame, then both decoders — and enforces the package
// contract: malformed input returns an error, it never panics and never
// over-allocates past the framing bounds.
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: every sample message as a well-formed frame, plus the
	// classic confusions (HTTP text, truncations, corrupted CRC).
	for _, req := range sampleRequests() {
		if p, err := AppendRequest(nil, req); err == nil {
			if fr, err := AppendFrame(nil, p); err == nil {
				f.Add(fr)
			}
		}
	}
	for _, resp := range sampleResponses() {
		if p, err := AppendResponse(nil, resp); err == nil {
			if fr, err := AppendFrame(nil, p); err == nil {
				f.Add(fr)
			}
		}
	}
	f.Add([]byte("GET /kv/42 HTTP/1.1\r\n\r\n"))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	good, _ := AppendFrame(nil, []byte("payload"))
	f.Add(good[:len(good)-2])
	for _, p := range retiredStatsPayloads() {
		if fr, err := AppendFrame(nil, p); err == nil {
			f.Add(fr)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			if err == io.EOF && len(data) > 0 && len(data) < HeaderSize {
				t.Fatalf("partial header returned clean EOF")
			}
			return
		}
		// A verified payload may still be malformed; decoding must simply
		// not panic either way.
		if req, err := DecodeRequest(payload); err == nil && !req.Op.Valid() {
			t.Fatalf("DecodeRequest accepted invalid op %d", req.Op)
		}
		if resp, err := DecodeResponse(payload); err == nil && !resp.Op.Valid() {
			t.Fatalf("DecodeResponse accepted invalid op %d", resp.Op)
		}
	})
}

// retiredStatsPayloads returns the request and response payloads of the
// retired stats op (code 8) in its former wire layout: an empty request
// body, and a response body of commits, aborts, keys (u64 each) and the
// admission width (u32). Both decoders must refuse them with ErrBadOp.
func retiredStatsPayloads() [][]byte {
	req := append(binary.LittleEndian.AppendUint64(nil, 8), 8)
	resp := append(binary.LittleEndian.AppendUint64(nil, 9), 8, byte(StatusOK))
	for _, v := range []uint64{10, 3, 5} {
		resp = binary.LittleEndian.AppendUint64(resp, v)
	}
	resp = binary.LittleEndian.AppendUint32(resp, 8)
	return [][]byte{req, resp}
}

// FuzzRoundTrip checks that whatever DecodeRequest accepts re-encodes to
// the identical payload (the codec is canonical: one message, one byte
// string), and likewise for responses.
func FuzzRoundTrip(f *testing.F) {
	for _, req := range sampleRequests() {
		if p, err := AppendRequest(nil, req); err == nil {
			f.Add(p)
		}
	}
	for _, resp := range sampleResponses() {
		if p, err := AppendResponse(nil, resp); err == nil {
			f.Add(p)
		}
	}
	for _, p := range retiredStatsPayloads() {
		f.Add(p)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		if req, err := DecodeRequest(payload); err == nil {
			out, err := AppendRequest(nil, req)
			if err != nil {
				t.Fatalf("accepted request %+v failed to re-encode: %v", req, err)
			}
			if !bytes.Equal(out, payload) {
				t.Fatalf("request re-encode diverged:\n in  %x\n out %x", payload, out)
			}
			again, err := DecodeRequest(out)
			if err != nil || !reflect.DeepEqual(req, again) {
				t.Fatalf("request double decode diverged: %v", err)
			}
		}
		if resp, err := DecodeResponse(payload); err == nil {
			out, err := AppendResponse(nil, resp)
			if err != nil {
				t.Fatalf("accepted response %+v failed to re-encode: %v", resp, err)
			}
			if !bytes.Equal(out, payload) {
				t.Fatalf("response re-encode diverged:\n in  %x\n out %x", payload, out)
			}
		}
	})
}
