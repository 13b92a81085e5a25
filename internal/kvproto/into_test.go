package kvproto

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// The append/Into variants a connection loop uses must be the public
// nil-dst functions with the allocation taken out, nothing else.

func TestAppendResponseFrameMatchesAppendFrame(t *testing.T) {
	prefix := []byte("already in the write buffer")
	for _, resp := range sampleResponses() {
		payload, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		want := frameOf(t, payload)
		got, err := AppendResponseFrame(append([]byte(nil), prefix...), resp)
		if err != nil {
			t.Fatalf("%+v: %v", resp, err)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%+v:\n got  %x\n want %x after the prefix", resp, got, want)
		}
	}
	// A response the encoder refuses leaves dst as it was.
	bad := &Response{ID: 1, Op: OpScan, Pairs: make([]KV, MaxScanPairs+1)}
	if got, err := AppendResponseFrame(prefix, bad); err != ErrTooManyPairs || !bytes.Equal(got, prefix) {
		t.Fatalf("unencodable response: (%q, %v), want the untouched prefix and ErrTooManyPairs", got, err)
	}
}

func TestDecodeRequestIntoOverwritesWhole(t *testing.T) {
	var req Request
	for _, want := range sampleRequests() {
		payload, err := AppendRequest(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		// req still holds the previous sample: none of it may survive but
		// the capacity of Ops, empty unless this sample is a batch.
		if err := DecodeRequestInto(payload, &req); err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		got := req
		if got.Op != OpBatch && len(got.Ops) == 0 {
			got.Ops = nil
		}
		fresh, err := DecodeRequest(payload)
		if err != nil || !reflect.DeepEqual(&got, fresh) {
			t.Fatalf("reused decode %+v differs from fresh decode %+v (%v)", req, fresh, err)
		}
	}
}

// TestDecodeRequestIntoReusesOps: a batch that fits the Request's previous
// Ops is decoded into them, also across non-batch requests in between.
func TestDecodeRequestIntoReusesOps(t *testing.T) {
	encode := func(req *Request) []byte {
		payload, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	batch := encode(&Request{ID: 1, Op: OpBatch, Ops: []BatchOp{{Op: OpAdd, Key: 1, Val: 2}, {Op: OpAdd, Key: 3, Val: 4}}})
	get := encode(&Request{ID: 2, Op: OpGet, Key: 1})
	var req Request
	if n := testing.AllocsPerRun(100, func() {
		if DecodeRequestInto(batch, &req) != nil || len(req.Ops) != 2 || req.Ops[1].Key != 3 {
			t.Fatalf("batch decoded as %+v", req)
		}
		if DecodeRequestInto(get, &req) != nil || len(req.Ops) != 0 {
			t.Fatalf("get decoded as %+v", req)
		}
	}); n != 0 {
		t.Fatalf("decoding into a Request that has held the batch before: %v allocs, want 0", n)
	}
}

func TestFrameBuffered(t *testing.T) {
	frame := frameOf(t, []byte("0123456789"))
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0} // length ReadFrame rejects
	for _, tc := range []struct {
		name   string
		stream []byte
		want   bool
	}{
		{"empty", nil, false},
		{"partial header", frame[:HeaderSize-1], false},
		{"header only", frame[:HeaderSize], false},
		{"partial payload", frame[:len(frame)-1], false},
		{"whole frame", frame, true},
		{"frame and a half", append(append([]byte(nil), frame...), frame[:5]...), true},
		{"oversized length", huge, true},
	} {
		br := bufio.NewReader(bytes.NewReader(tc.stream))
		br.Peek(1) // one read fills the buffer with the whole stream
		if got := FrameBuffered(br); got != tc.want {
			t.Errorf("%s: FrameBuffered = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestReadFrameReusesBuffer: with a buffer that fits, reading a frame
// allocates nothing — the header is read into the buffer too.
func TestReadFrameReusesBuffer(t *testing.T) {
	stream := bytes.Repeat(frameOf(t, []byte("0123456789abcdef")), 64)
	r := bytes.NewReader(stream)
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(50, func() {
		p, err := ReadFrame(r, buf)
		if err != nil {
			r.Reset(stream)
			return
		}
		buf = p
	}); n != 0 {
		t.Fatalf("ReadFrame with a fitting buffer: %v allocs, want 0", n)
	}
}
