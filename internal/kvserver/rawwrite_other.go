//go:build !unix

package kvserver

import "syscall"

// rawWrite is the unix one-attempt socket write; elsewhere it writes
// nothing and the delivery hands off.
func rawWrite(rc syscall.RawConn, b []byte) (n int, done bool) { return 0, false }
