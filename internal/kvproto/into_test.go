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
		// req still holds the previous sample: none of it may survive.
		if err := DecodeRequestInto(payload, &req); err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		fresh, err := DecodeRequest(payload)
		if err != nil || !reflect.DeepEqual(&req, fresh) {
			t.Fatalf("reused decode %+v differs from fresh decode %+v (%v)", req, fresh, err)
		}
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
