// The HTTP codec's bytes. Every data response is rendered by appendBody and
// every /batch body is parsed by batchDecoder, both by hand: encoding/json
// stays the reference the tests hold them to (byte-identical output, the
// same accepted bodies), and the codec for /stats, /tuning and the CAS and
// Add bodies, which are not on the data path's hot end.
package kvserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"tinystm/internal/kvproto"
	"tinystm/internal/kvstore"
)

// maxPooledBytes bounds a buffer kept for reuse: room for the largest data
// response (MaxScanPairs pairs of two 20-digit numbers), so only a request
// body far beyond any real batch is left to the collector.
const maxPooledBytes = 256 << 10

// bodyBufs recycles the buffers responses are rendered into.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// limitedBody is r's body capped at kvproto.MaxFrame, the binary surface's
// frame cap: one request cannot make the server buffer more than the wire
// protocol would. A read past the cap fails with *http.MaxBytesError.
func limitedBody(w http.ResponseWriter, r *http.Request) io.Reader {
	return http.MaxBytesReader(w, r.Body, kvproto.MaxFrame)
}

// bodyError answers a request body that could not be read or parsed: 413
// when it ran past the cap, 400 otherwise.
func bodyError(w http.ResponseWriter, prefix string, err error) {
	code := http.StatusBadRequest
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, prefix+err.Error(), code)
}

// writeBody renders resp, a successful answer to req, as the 200 response.
func writeBody(w http.ResponseWriter, req *kvproto.Request, resp *kvproto.Response) {
	bp := bodyBufs.Get().(*[]byte)
	b := appendBody((*bp)[:0], req, resp)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(b)
	if cap(b) <= maxPooledBytes {
		*bp = b
		bodyBufs.Put(bp)
	}
}

// appendBody appends the JSON document of resp, a successful answer to
// req, to dst: byte for byte what encoding/json's Encoder wrote for the maps
// the handlers used to build — keys in sorted order, a nil Results as null,
// a scan without pairs as [], and the trailing newline.
func appendBody(dst []byte, req *kvproto.Request, resp *kvproto.Response) []byte {
	switch req.Op {
	case kvproto.OpGet:
		dst = strconv.AppendUint(append(dst, `{"key":`...), req.Key, 10)
		dst = strconv.AppendUint(append(dst, `,"val":`...), resp.Val, 10)
	case kvproto.OpPut:
		dst = strconv.AppendBool(append(dst, `{"inserted":`...), resp.OK)
	case kvproto.OpDelete:
		dst = append(dst, `{"deleted":true`...)
	case kvproto.OpCAS:
		dst = strconv.AppendBool(append(dst, `{"ok":`...), resp.OK)
	case kvproto.OpAdd:
		dst = strconv.AppendUint(append(dst, `{"val":`...), resp.Val, 10)
	case kvproto.OpBatch:
		dst = append(dst, `{"results":`...)
		if resp.Results == nil {
			dst = append(dst, "null"...)
			break
		}
		dst = append(dst, '[')
		for i, r := range resp.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(append(dst, `{"val":`...), r.Val, 10)
			dst = strconv.AppendBool(append(dst, `,"found":`...), r.Found)
			dst = strconv.AppendBool(append(dst, `,"ok":`...), r.OK)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	case kvproto.OpScan:
		dst = strconv.AppendUint(append(dst, `{"keys":`...), resp.Total, 10)
		dst = append(dst, `,"pairs":[`...)
		for i, kv := range resp.Pairs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(append(dst, `{"key":`...), kv.Key, 10)
			dst = strconv.AppendUint(append(dst, `,"val":`...), kv.Val, 10)
			dst = append(dst, '}')
		}
		dst = strconv.AppendBool(append(dst, `],"snapshot":`...), resp.Snapshot)
	}
	return append(dst, "}\n"...)
}

// maxJSONDepth is encoding/json's nesting limit: a value that has more
// objects and arrays open at once is a syntax error there, and so here.
const maxJSONDepth = 10000

// batchRec is one element of a /batch body's ops array as decoded so far:
// the numbers, and where the op name's raw bytes (escapes included) lie in
// the body. A name never given is the empty string.
type batchRec struct {
	key, val, old uint64
	name          [2]int32
}

// batchDecoder reads a /batch body, {"ops":[{"op":"put","key":1,"val":2},
// ...]}, into kvproto.BatchOps, accepting exactly what
// json.NewDecoder(body).Decode accepted into the struct the handler used to
// decode into ({Ops []struct{Op string; Key, Val, Old uint64}}) and giving
// every body that decoder's outcome:
//
//   - only the first JSON value counts; bytes after it are never looked at,
//     and it must be well-formed, nested at most maxJSONDepth deep;
//   - member names match case-insensitively (bytes.EqualFold) after
//     unescaping, any key order, and a repeated member's last value wins;
//   - members that are not fields are skipped, whatever value they hold;
//   - null leaves a field as it was, except that ops:null empties the list;
//   - a number field takes only what strconv.ParseUint(s, 10, 64) reads;
//   - like a slice under encoding/json, a later "ops" array decodes into the
//     elements an earlier one left, so fields it does not name keep theirs.
//
// A decoder is reused; all it keeps between bodies is its buffers.
type batchDecoder struct {
	body  []byte
	off   int
	depth int
	// recs holds every element the ops list has had since it was last
	// emptied, n of them in the list now: an encoding/json slice's
	// backing array, whose elements past its length are reused as the
	// list grows back.
	recs []batchRec
	n    int
	ops  []kvproto.BatchOp
	name []byte // scratch for unescaping a name
}

var batchDecoders = sync.Pool{New: func() any { return new(batchDecoder) }}

// read reads the whole body from r into the decoder's buffer.
func (d *batchDecoder) read(r io.Reader) error {
	b := d.body[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 512)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			d.body = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// release returns d to the pool unless one body made it large.
func (d *batchDecoder) release() {
	if cap(d.body) <= maxPooledBytes && cap(d.recs) <= 2*kvproto.MaxBatchOps {
		batchDecoders.Put(d)
	}
}

// decode parses the body read last. It returns the ops (valid until d is
// reused), or the status and error to answer instead: 400 for a body
// encoding/json would refuse, 413 for more than MaxBatchOps ops, 400 for
// an op name kvstore.ParseOpKind does not know — checked in that order.
func (d *batchDecoder) decode() ([]kvproto.BatchOp, int, error) {
	d.off, d.depth, d.recs, d.n = 0, 0, d.recs[:0], 0
	if err := d.document(); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad body: %w", err)
	}
	// A giant batch is a giant transaction, and past a point it would
	// conflict with everything and starve (the same reason the resize
	// transaction is per-shard); the wire decoder enforces the same cap.
	if d.n > kvproto.MaxBatchOps {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("batch exceeds %d ops", kvproto.MaxBatchOps)
	}
	d.ops = d.ops[:0]
	for _, r := range d.recs[:d.n] {
		kind, err := kvstore.ParseOpKind(d.unquote(d.body[r.name[0]:r.name[1]]))
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		d.ops = append(d.ops, kvproto.BatchOp{Op: wireOps[kind], Key: r.key, Val: r.val, Old: r.old})
	}
	return d.ops, 0, nil
}

// document parses the body's first value: the object, or null (no ops).
func (d *batchDecoder) document() error {
	d.space()
	switch d.peek() {
	case '{':
		return d.object(func(name []byte) error {
			if bytes.EqualFold(name, []byte("ops")) {
				return d.opsValue()
			}
			return d.skip()
		})
	case 'n':
		return d.literal("null")
	}
	return d.wrongType("the body")
}

// opsValue parses the value of an "ops" member into d.recs and d.n.
func (d *batchDecoder) opsValue() error {
	switch d.peek() {
	case 'n':
		d.recs, d.n = d.recs[:0], 0
		return d.literal("null")
	case '[':
	default:
		return d.wrongType("ops")
	}
	n, err := d.array(func(i int) error {
		if i == len(d.recs) {
			d.recs = append(d.recs, batchRec{})
		}
		return d.element(&d.recs[i])
	})
	if err != nil {
		return err
	}
	if d.n = n; n == 0 {
		// An empty array replaces the list, earlier elements and all.
		d.recs = d.recs[:0]
	}
	return nil
}

// element parses one ops array element into r: an object of op fields, or
// null, which leaves r as it was.
func (d *batchDecoder) element(r *batchRec) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.wrongType("an op")
	}
	return d.object(func(name []byte) error {
		var field *uint64
		switch {
		case bytes.EqualFold(name, []byte("op")):
			switch d.peek() {
			case 'n':
				return d.literal("null")
			case '"':
			default:
				return d.wrongType("an op name")
			}
			start := d.off + 1
			if _, err := d.str(); err != nil {
				return err
			}
			r.name = [2]int32{int32(start), int32(d.off - 1)}
			return nil
		case bytes.EqualFold(name, []byte("key")):
			field = &r.key
		case bytes.EqualFold(name, []byte("val")):
			field = &r.val
		case bytes.EqualFold(name, []byte("old")):
			field = &r.old
		default:
			return d.skip()
		}
		return d.uint(field)
	})
}

// uint parses a number field's value into *v: null leaves it, anything
// but a number ParseUint reads is the wrong type.
func (d *batchDecoder) uint(v *uint64) error {
	if c := d.peek(); c == 'n' {
		return d.literal("null")
	} else if c != '-' && (c < '0' || c > '9') {
		return d.wrongType("a number field")
	}
	num, err := d.number()
	if err != nil {
		return err
	}
	var n uint64
	for _, c := range num {
		if c < '0' || c > '9' || n > (1<<64-1)/10 || n*10 > 1<<64-1-uint64(c-'0') {
			return fmt.Errorf("number %s does not fit a uint64 field", num)
		}
		n = n*10 + uint64(c-'0')
	}
	*v = n
	return nil
}

// object parses the object at d.off, handing each member's name, unescaped,
// to member, which parses the member's value.
func (d *batchDecoder) object(member func(name []byte) error) error {
	if empty, err := d.open('}'); empty || err != nil {
		return err
	}
	for {
		if d.peek() != '"' {
			return d.syntax("object member name")
		}
		raw, err := d.str()
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.syntax("':' after object member name")
		}
		d.off++
		d.space()
		if err := member(d.unquote(raw)); err != nil {
			return err
		}
		if done, err := d.after('}'); done || err != nil {
			return err
		}
	}
}

// array parses the array at d.off, handing each element's index to elem,
// which parses the element, and returns the element count.
func (d *batchDecoder) array(elem func(i int) error) (int, error) {
	if empty, err := d.open(']'); empty || err != nil {
		return 0, err
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return 0, err
		}
		if done, err := d.after(']'); done || err != nil {
			return i + 1, err
		}
	}
}

// open consumes an object's or array's opening bracket and the space after
// it, and the closing bracket too when the container is empty.
func (d *batchDecoder) open(close byte) (empty bool, err error) {
	d.off++
	if d.depth++; d.depth > maxJSONDepth {
		return false, fmt.Errorf("value at offset %d nests deeper than %d", d.off-1, maxJSONDepth)
	}
	d.space()
	return d.closes(close), nil
}

// after consumes what follows a container's element: the closing bracket
// (done), or a comma and the space before the next element.
func (d *batchDecoder) after(close byte) (done bool, err error) {
	d.space()
	if d.closes(close) {
		return true, nil
	}
	if d.peek() != ',' {
		return false, d.syntax("',' or '" + string(close) + "'")
	}
	d.off++
	d.space()
	return false, nil
}

// closes consumes the container's closing bracket if it is next.
func (d *batchDecoder) closes(close byte) bool {
	if d.peek() != close {
		return false
	}
	d.off++
	d.depth--
	return true
}

// skip parses and discards any well-formed value.
func (d *batchDecoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		_, err := d.array(func(int) error { return d.skip() })
		return err
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.syntax("value")
}

// str consumes the string at d.off and returns its raw contents, escapes
// still in place. The escapes and bytes it accepts are JSON's.
func (d *batchDecoder) str() ([]byte, error) {
	d.off++
	start := d.off
	for d.off < len(d.body) {
		switch c := d.body[d.off]; {
		case c == '"':
			d.off++
			return d.body[start : d.off-1], nil
		case c == '\\':
			if d.off+1 >= len(d.body) {
				return nil, io.ErrUnexpectedEOF
			}
			switch d.body[d.off+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.off += 2
			case 'u':
				for i := d.off + 2; i < d.off+6; i++ {
					if i >= len(d.body) {
						return nil, io.ErrUnexpectedEOF
					}
					if hexVal(d.body[i]) < 0 {
						d.off = i
						return nil, d.syntax("hex digit in \\u escape")
					}
				}
				d.off += 6
			default:
				d.off++
				return nil, d.syntax("escape character")
			}
		case c < 0x20:
			return nil, d.syntax("character in string literal")
		default:
			d.off++
		}
	}
	return nil, io.ErrUnexpectedEOF
}

// number consumes the JSON number at d.off and returns its bytes.
func (d *batchDecoder) number() ([]byte, error) {
	start := d.off
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.syntax("digit")
	}
	if d.peek() == '.' {
		d.off++
		if !d.digits() {
			return nil, d.syntax("digit after decimal point")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !d.digits() {
			return nil, d.syntax("digit in exponent")
		}
	}
	return d.body[start:d.off], nil
}

// digits consumes a run of decimal digits, reporting whether there was one.
func (d *batchDecoder) digits() bool {
	start := d.off
	for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
		d.off++
	}
	return d.off > start
}

// literal consumes the literal word (true, false or null) at d.off.
func (d *batchDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.peek() != word[i] {
			return d.syntax("character in literal " + word)
		}
		d.off++
	}
	return nil
}

// space skips JSON whitespace.
func (d *batchDecoder) space() {
	for d.off < len(d.body) {
		switch d.body[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the byte at d.off, 0 at the end of the body (a 0 byte inside
// it is never valid where peek's callers look).
func (d *batchDecoder) peek() byte {
	if d.off < len(d.body) {
		return d.body[d.off]
	}
	return 0
}

// syntax reports a malformed body: want names what was expected at d.off.
func (d *batchDecoder) syntax(want string) error {
	if d.off >= len(d.body) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q at offset %d: want %s", d.body[d.off], d.off, want)
}

// wrongType reports a well-started value of a type the field cannot hold.
func (d *batchDecoder) wrongType(what string) error {
	if d.off >= len(d.body) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("value at offset %d has the wrong type for %s", d.off, what)
}

// unquote returns a validated string's raw contents unescaped the way
// encoding/json unescapes them: a lone or broken surrogate and an invalid
// UTF-8 byte each become U+FFFD. Plain ASCII is returned in place; anything
// else is written to d.name, which the next call overwrites.
func (d *batchDecoder) unquote(raw []byte) []byte {
	plain := true
	for _, c := range raw {
		if c == '\\' || c >= utf8.RuneSelf {
			plain = false
			break
		}
	}
	if plain {
		return raw
	}
	out := d.name[:0]
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\\' && raw[i+1] == 'u':
			r := hex4(raw[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					if dec := utf16.DecodeRune(r, hex4(raw[i+2:])); dec != unicode.ReplacementChar {
						out = utf8.AppendRune(out, dec)
						i += 6
						continue
					}
				}
				r = unicode.ReplacementChar
			}
			out = utf8.AppendRune(out, r)
		case c == '\\':
			out = append(out, unescaped[raw[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	d.name = out
	return out
}

// unescaped maps the character after a backslash to the byte it stands for.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 decodes the four hex digits at the start of b (validated by str).
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		r = r<<4 | rune(hexVal(c))
	}
	return r
}

func hexVal(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}
