//go:build unix

package kvserver

import (
	"net"
	"syscall"
)

// rawWriter makes the flusher's one write(2) attempt on a connection's
// non-blocking socket. Its callback is bound once, when the connection
// starts, and an attempt's bytes and outcome live in the struct, so an
// attempt allocates nothing. Used under the connection's write lock.
type rawWriter struct {
	rc  syscall.RawConn // nil: no socket to write to, every delivery hands off
	try func(fd uintptr) bool
	b   []byte
	n   int
	err error
}

// init binds w to conn's socket, if it has one.
func (w *rawWriter) init(conn net.Conn) {
	if sc, ok := conn.(syscall.Conn); ok {
		w.rc, _ = sc.SyscallConn()
		w.try = w.attempt
	}
}

func (w *rawWriter) attempt(fd uintptr) bool {
	w.n, w.err = syscall.Write(int(fd), w.b)
	return true
}

// write makes one write(2) attempt of b and never waits for room. It
// returns how much the kernel took, and done when nothing is left to
// write: all of b went out, or the socket failed and the rest is dropped,
// as a failed bufio flush drops it.
func (w *rawWriter) write(b []byte) (n int, done bool) {
	if w.rc == nil {
		return 0, false
	}
	w.b, w.n, w.err = b, 0, nil
	err := w.rc.Write(w.try)
	w.b = nil
	switch {
	case err != nil:
		return 0, true
	case w.err == syscall.EAGAIN || w.err == syscall.EINTR:
		return 0, false
	case w.err != nil:
		return 0, true
	}
	return w.n, w.n == len(b)
}
