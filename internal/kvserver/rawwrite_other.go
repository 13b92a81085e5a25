//go:build !unix

package kvserver

import "net"

// rawWriter is the unix one-attempt socket write; elsewhere it writes
// nothing and every delivery hands off.
type rawWriter struct{}

func (w *rawWriter) init(net.Conn) {}

func (w *rawWriter) write(b []byte) (n int, done bool) { return 0, false }
