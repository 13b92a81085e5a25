// Package wal implements a commit-timestamp-keyed write-ahead log with
// group commit, snapshot checkpoints and crash recovery for the STM
// key/value store.
//
// Committed update transactions hand their redo records (effective puts
// and deletes, tagged with the commit's clock epoch and timestamp) to
// Log.Append from inside commit publication, while the STM write locks
// are still held. That hook placement means append order agrees with
// commit-timestamp order for any two transactions touching a common key,
// so the log needs no coordination of its own: a single flusher goroutine
// drains the lock-free staging stack, sorts each batch by (epoch, ts),
// writes one checksummed frame, and fsyncs once for the whole batch.
// Callers that need ack-after-durable semantics hold the ticket Append
// returns until it resolves.
//
// That one fsync is meant to cost one data write. A segment is reserved
// whole when it is created (Reserver: a size-extending fallocate on
// Linux), so a frame overwrites zeros the file already owns instead of
// growing it, and the sync has no size or block-allocation change to push
// through the filesystem's journal. A segment is cut back to its frames
// and synced when it is sealed, before its successor is created: only the
// newest segment on disk can ever end in reserved zeros. Where the file
// cannot be reserved (another platform, a filesystem that refuses
// fallocate) frames are appended as they always were, in the same format;
// Stats.Preallocated says which of the two a running log got.
//
// The ticket (Pending) is built so that a commit pays for the log and for
// nothing else. It carries no channel: one atomic word says open, claimed
// or resolved; Done polls it, and Wait parks on a counter inside the
// ticket only when it really has to block. A server connection blocks on
// none: it claims its tickets (Claim), and the flusher, once a batch is
// resolved, tells each claiming Owner once. A record of up to two ops lives inside its ticket, so
// Append is one allocation; the flusher reuses its batch, record and frame
// buffers, so a batch is none. Housekeeping (DropSegmentsBefore, Stats)
// takes no lock the flusher holds across an fsync.
//
// Recovery is a pure fold: load the newest valid checkpoint, then replay
// every remaining segment in segment-index order, applying records
// front-to-back. No (epoch, ts) filtering is required because truncation
// only ever removes a *prefix* of segments — per key, any record still on
// disk is at least as new as every record already folded into the
// checkpoint, and the last record wins. A torn tail in the final segment
// (the signature of kill -9 mid-write) is tolerated and measured;
// corruption anywhere else fails loudly. With reserved segments "torn" can
// no longer mean "the file ends early"; parseSegment states the rule that
// replaced it.
package wal

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the filesystem surface the WAL uses. Production code passes OS;
// tests pass a MemFS configured to tear writes or fail fsyncs at a chosen
// operation, which is how the kill-at-any-point property test drives
// recovery through every crash position deterministically.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// ReadDir returns the sorted names of dir's entries.
	ReadDir(dir string) ([]string, error)
	// ReadFile returns the full contents of the named file.
	ReadFile(path string) ([]byte, error)
	// Create creates (or truncates) the named file for writing.
	Create(path string) (File, error)
	// Remove deletes the named file.
	Remove(path string) error
	// Rename atomically renames oldPath to newPath.
	Rename(oldPath, newPath string) error
	// SyncDir fsyncs the directory itself, making renames and creates
	// within it durable.
	SyncDir(dir string) error
}

// File is a writable log file. Write continues where the last one ended,
// from offset zero in a file just created; it does not seek to the end.
type File interface {
	io.Writer
	// Sync flushes written data to stable storage.
	Sync() error
	// Close closes the file.
	Close() error
}

// Reserver is an optional capability of a File: space for what will be
// written can be claimed ahead of the writes. The log asks every segment
// it creates for it and appends as before when the File has none or
// Reserve fails.
type Reserver interface {
	// Reserve extends the empty file to size bytes of allocated zeros
	// without moving the write position. It may fail after extending the
	// file part of the way.
	Reserve(size int64) error
	// Truncate sets the file's size, dropping what lies beyond it.
	Truncate(size int64) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile(f), nil
}

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
