//go:build linux

package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
)

// The yardstick is a server with nothing behind it: it speaks both of
// stmkvd's surfaces and answers every request of the workloads from
// constants, with the same shape and size on the wire. It exists because
// the benchmark's home is a shared host whose speed moves by a third for
// minutes at a time: a time measured there says more about the host's
// mood than about stmkvd. The generator therefore drives stmkvd and the
// yardstick in alternating slices of one phase and reports stmkvd's cost
// as a multiple of the yardstick's, which the host's mood cancels out of.
//
// It runs as a child process of the benchmark's own binary (`bench
// yardstick`) and logs the same two `listening on` lines as stmkvd, so
// the same code boots and stops both. Its code lives in bench/ and uses
// the standard library only; a change that claims a gain may edit
// neither, so the unit stays fixed.

// yardstickVal is what the yardstick says key holds: the preload value,
// so every check the generator makes on a response (a get finds its key,
// a batchget of the ledger sums to ledgerSum) passes without a store.
func yardstickVal(key uint64) uint64 {
	if key >= ledgerBase && key < ledgerBase+ledgerKeys {
		return ledgerInit(int(key - ledgerBase))
	}
	return preloadVal(key)
}

// The binary surface is spoken by hand, from the layouts documented in
// internal/kvproto, not through that package: the yardstick is the unit of
// measurement, so nothing a later change may speed up can be inside it.
const (
	ysOpGet, ysOpPut, ysOpCAS, ysOpAdd, ysOpBatch, ysOpScan = 1, 2, 4, 5, 6, 7
	ysDeadlineFlag                                          = 0x80
	ysSubOpSize                                             = 25 // op u8, key, val, old u64
)

var ysCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// yardstickScanBody is the scan answer's body: scanLimit pairs, like the
// real one. Flags 0 (no snapshot), total, count, pairs.
var yardstickScanBody = func() []byte {
	b := []byte{0}
	b = binary.LittleEndian.AppendUint64(b, scanLimit)
	b = binary.LittleEndian.AppendUint32(b, scanLimit)
	for k := uint64(0); k < scanLimit; k++ {
		b = binary.LittleEndian.AppendUint64(b, k)
		b = binary.LittleEndian.AppendUint64(b, preloadVal(k))
	}
	return b
}()

// yardstickAnswer appends the response payload for request payload p to
// dst: id, op, status OK, then the op's body. ok is false for a request
// the workloads never send or a truncated one.
func yardstickAnswer(dst, p []byte) (out []byte, ok bool) {
	if len(p) < 9 {
		return dst, false
	}
	op, body := p[8]&^ysDeadlineFlag, p[9:]
	if p[8]&ysDeadlineFlag != 0 {
		if len(body) < 4 {
			return dst, false
		}
		body = body[4:]
	}
	dst = append(append(dst, p[:8]...), op, 0)
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(body[off:]) }
	switch {
	case op == ysOpGet && len(body) == 8:
		dst = append(dst, 1) // found
		dst = binary.LittleEndian.AppendUint64(dst, yardstickVal(u64(0)))
	case op == ysOpPut && len(body) == 16:
		dst = append(dst, 0) // not inserted: the key was there
	case op == ysOpCAS && len(body) == 24:
		dst = append(dst, 2) // swapped
	case op == ysOpAdd && len(body) == 16:
		dst = binary.LittleEndian.AppendUint64(dst, u64(8))
	case op == ysOpScan && len(body) == 4:
		dst = append(dst, yardstickScanBody...)
	case op == ysOpBatch && len(body) >= 4 && len(body) == 4+ysSubOpSize*int(binary.LittleEndian.Uint32(body)):
		n := binary.LittleEndian.Uint32(body)
		dst = binary.LittleEndian.AppendUint32(dst, n)
		for sub := body[4:]; len(sub) > 0; sub = sub[ysSubOpSize:] {
			if sub[0] == ysOpGet {
				dst = append(dst, 1)
				dst = binary.LittleEndian.AppendUint64(dst, yardstickVal(binary.LittleEndian.Uint64(sub[1:])))
			} else {
				dst = append(dst, 2)
				dst = binary.LittleEndian.AppendUint64(dst, 0)
			}
		}
	default:
		return dst, false
	}
	return dst, true
}

// yardstickProto serves one binary connection: read a frame, answer it,
// flush when no further request is already buffered. Anything it does not
// understand ends the connection, which the generator reports.
func yardstickProto(c net.Conn) {
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	var hdr [8]byte
	var in, out []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		if n > 1<<20 {
			return
		}
		if uint32(cap(in)) < n {
			in = make([]byte, n)
		}
		in = in[:n]
		if _, err := io.ReadFull(br, in); err != nil {
			return
		}
		// The frame header is filled in once the payload behind it is known.
		var ok bool
		if out, ok = yardstickAnswer(append(out[:0], hdr[:]...), in); !ok {
			return
		}
		binary.LittleEndian.PutUint32(out[:4], uint32(len(out)-8))
		binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(out[8:], ysCastagnoli))
		if _, err := bw.Write(out); err != nil {
			return
		}
		if br.Buffered() == 0 && bw.Flush() != nil {
			return
		}
	}
}

// yardstickHTTP answers stmkvd's HTTP routes with bodies of the same
// shape. A batch is answered by counting its ops, not by decoding them:
// an all-get batch is the ledger batchget, anything else a transfer.
func yardstickHTTP() http.Handler {
	var ledger, scan bytes.Buffer
	ledger.WriteString(`{"results":[`)
	for j := 0; j < ledgerKeys; j++ {
		if j > 0 {
			ledger.WriteByte(',')
		}
		fmt.Fprintf(&ledger, `{"val":%d,"found":true,"ok":false}`, ledgerInit(j))
	}
	ledger.WriteString("]}\n")
	fmt.Fprintf(&scan, `{"keys":%d,"pairs":[`, scanLimit)
	for k := uint64(0); k < scanLimit; k++ {
		if k > 0 {
			scan.WriteByte(',')
		}
		fmt.Fprintf(&scan, `{"key":%d,"val":%d}`, k, preloadVal(k))
	}
	scan.WriteString(`],"snapshot":true}` + "\n")

	reply := func(w http.ResponseWriter, body []byte) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body) // a client that went away is not the yardstick's concern
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) { reply(w, []byte("ready\n")) })
	mux.HandleFunc("GET /kv/{key}", func(w http.ResponseWriter, r *http.Request) {
		key, err := strconv.ParseUint(r.PathValue("key"), 10, 64)
		if err != nil {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		reply(w, []byte(fmt.Sprintf(`{"key":%d,"val":%d}`+"\n", key, yardstickVal(key))))
	})
	mux.HandleFunc("PUT /kv/{key}", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		reply(w, []byte(`{"inserted":false}`+"\n"))
	})
	mux.HandleFunc("POST /kv/{key}/cas", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		reply(w, []byte(`{"ok":true}`+"\n"))
	})
	mux.HandleFunc("POST /kv/{key}/add", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		reply(w, []byte(`{"val":0}`+"\n"))
	})
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		n := bytes.Count(body, []byte(`"op":`))
		if n == ledgerKeys && bytes.Count(body, []byte(`"op":"get"`)) == n {
			reply(w, ledger.Bytes())
			return
		}
		out := []byte(`{"results":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				out = append(out, ',')
			}
			out = append(out, `{"val":0,"found":true,"ok":true}`...)
		}
		reply(w, append(out, "]}\n"...))
	})
	mux.HandleFunc("GET /scan", func(w http.ResponseWriter, r *http.Request) { reply(w, scan.Bytes()) })
	return mux
}

// yardstick is the two listeners of one yardstick server.
type yardstick struct{ http, proto net.Listener }

// listenYardstick binds both surfaces on ephemeral ports and serves them
// until close.
func listenYardstick() (*yardstick, error) {
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hl.Close()
		return nil, err
	}
	go func() { _ = http.Serve(hl, yardstickHTTP()) }() // returns when hl closes
	go func() {
		for {
			c, err := pl.Accept()
			if err != nil {
				return // listener closed
			}
			go yardstickProto(c) // ends when the client hangs up
		}
	}()
	return &yardstick{http: hl, proto: pl}, nil
}

func (y *yardstick) close() {
	y.http.Close()
	y.proto.Close()
}

// yardstickMain is `bench yardstick`: serve until told to stop.
func yardstickMain() int {
	y, err := listenYardstick()
	if err != nil {
		fmt.Fprintln(os.Stderr, "yardstick:", err)
		return 1
	}
	defer y.close()
	fmt.Printf("stmkvd: http listening on %s\n", y.http.Addr())
	fmt.Printf("stmkvd: proto listening on %s\n", y.proto.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return 0
}
