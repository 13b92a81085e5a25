//go:build !linux

package wal

import "os"

// osFile hands the file over as it is: no Reserver, so segments grow by
// appending.
func osFile(f *os.File) File { return f }
