//go:build unix

package kvserver

import "syscall"

// rawWrite makes one write(2) attempt of b on the non-blocking socket
// behind rc and never waits for room. It returns how much the kernel took,
// and done when nothing is left to write: all of b went out, or the socket
// failed and the rest is dropped, as a failed bufio flush drops it.
func rawWrite(rc syscall.RawConn, b []byte) (n int, done bool) {
	var werr error
	err := rc.Write(func(fd uintptr) bool {
		n, werr = syscall.Write(int(fd), b)
		return true
	})
	switch {
	case err != nil:
		return 0, true
	case werr == syscall.EAGAIN || werr == syscall.EINTR:
		return 0, false
	case werr != nil:
		return 0, true
	}
	return n, n == len(b)
}
