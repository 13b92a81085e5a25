package wal

import (
	"errors"
	"fmt"
	"os"
	"path"
	"sort"
	"strings"
	"sync"
)

// Injected-fault sentinels returned by a MemFS configured to fail.
var (
	// ErrInjectedWrite is returned by writes at and after the configured
	// failure point.
	ErrInjectedWrite = errors.New("wal: injected write failure")
	// ErrInjectedSync is returned by syncs at and after the configured
	// failure point.
	ErrInjectedSync = errors.New("wal: injected sync failure")
	// ErrCrashed is returned by every operation after CrashAtWrite fired:
	// the simulated process is dead and must "reboot" via Crash().
	ErrCrashed = errors.New("wal: filesystem crashed")
)

// MemFS is a deterministic in-memory FS with fault injection, built for
// crash-recovery tests:
//
//   - Every file tracks its durable prefix (bytes covered by the last
//     Sync) separately from its live contents. Crash(keep) rewinds each
//     file to that durable prefix plus at most keep torn bytes — the
//     machine-restart view — and clears any armed fault.
//   - FailWriteAt/FailSyncAt(n) make the nth write/sync (1-based, counted
//     across all files) and every later one return an error, modelling a
//     disk that goes bad: this is how tests drive the log's sticky
//     degraded mode.
//   - CrashAtWrite(n) makes the nth write persist only a prefix of its
//     bytes and then fails every subsequent operation with ErrCrashed,
//     modelling kill -9 at an arbitrary instant; sweeping n across a
//     workload visits every crash position.
//   - HoldSync/HoldSyncDir park every file/directory sync until released,
//     modelling a slow disk: what is acknowledged, and what still runs,
//     while an fsync is in flight becomes observable without a sleep.
//
// Simplification, documented on purpose: metadata operations (Create,
// Remove, Rename, MkdirAll) are durable immediately, as if the directory
// were fsynced after each. The WAL still calls SyncDir so the real-OS
// path is correct; MemFS just cannot lose a rename.
type MemFS struct {
	mu    sync.Mutex
	dirs  map[string]bool
	files map[string]*memFile

	writes      int
	syncs       int
	failWriteAt int // 1-based write ordinal; 0 = disarmed
	failSyncAt  int // 1-based sync ordinal; 0 = disarmed
	crashAt     int // 1-based write ordinal; 0 = disarmed
	crashed     bool
	syncHold    *syncHold // parks file Syncs; nil = disarmed
	dirHold     *syncHold // parks SyncDirs; nil = disarmed
}

// syncHold parks syncs: arrived closes when the first one gets here, gate
// when the test lets them all go.
type syncHold struct {
	arrived chan struct{}
	once    sync.Once
	gate    chan struct{}
}

func (h *syncHold) park() {
	h.once.Do(func() { close(h.arrived) })
	<-h.gate
}

type memFile struct {
	data      []byte
	syncedLen int
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{dirs: map[string]bool{".": true}, files: map[string]*memFile{}}
}

// FailWriteAt arms the write-failure fault: the nth write from now
// (1-based, across all files) and all later writes fail.
func (m *MemFS) FailWriteAt(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failWriteAt = m.writes + n
}

// FailSyncAt arms the sync-failure fault: the nth Sync from now (1-based,
// across all files) and all later syncs fail.
func (m *MemFS) FailSyncAt(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failSyncAt = m.syncs + n
}

// HoldSync makes every file Sync from now on block before it takes effect
// (the bytes stay unsynced, and no MemFS lock is held) until release is
// called; arrived closes when the first one blocks.
func (m *MemFS) HoldSync() (arrived <-chan struct{}, release func()) {
	return m.hold(&m.syncHold)
}

// HoldSyncDir is HoldSync for directory syncs.
func (m *MemFS) HoldSyncDir() (arrived <-chan struct{}, release func()) {
	return m.hold(&m.dirHold)
}

func (m *MemFS) hold(slot **syncHold) (<-chan struct{}, func()) {
	h := &syncHold{arrived: make(chan struct{}), gate: make(chan struct{})}
	m.mu.Lock()
	*slot = h
	m.mu.Unlock()
	return h.arrived, sync.OnceFunc(func() {
		m.mu.Lock()
		if *slot == h {
			*slot = nil
		}
		m.mu.Unlock()
		close(h.gate)
	})
}

// held returns the hold armed in slot, if any.
func (m *MemFS) held(slot **syncHold) *syncHold {
	m.mu.Lock()
	defer m.mu.Unlock()
	return *slot
}

// CrashAtWrite arms the crash fault: the nth write from now persists only
// a prefix of its bytes and every operation afterwards returns ErrCrashed
// until Crash() reboots the filesystem.
func (m *MemFS) CrashAtWrite(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashAt = m.writes + n
}

// Crash simulates a machine restart: every file rewinds to its durable
// prefix plus at most keepUnsyncedBytes of torn tail, faults are
// disarmed, and the filesystem is usable again. Open handles from before
// the crash must not be reused.
func (m *MemFS) Crash(keepUnsyncedBytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.files {
		keep := f.syncedLen
		if extra := len(f.data) - f.syncedLen; extra > 0 {
			if extra > keepUnsyncedBytes {
				extra = keepUnsyncedBytes
			}
			keep += extra
		}
		f.data = f.data[:keep]
		f.syncedLen = keep
	}
	m.crashed = false
	m.failWriteAt = 0
	m.failSyncAt = 0
	m.crashAt = 0
}

// Writes reports the number of write calls observed so far; tests use it
// to size CrashAtWrite sweeps.
func (m *MemFS) Writes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writes
}

func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	dir = path.Clean(dir)
	for dir != "." && dir != "/" {
		m.dirs[dir] = true
		dir = path.Dir(dir)
	}
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	dir = path.Clean(dir)
	if !m.dirs[dir] {
		return nil, &os.PathError{Op: "readdir", Path: dir, Err: os.ErrNotExist}
	}
	var names []string
	prefix := dir + "/"
	for p := range m.files {
		if strings.HasPrefix(p, prefix) && !strings.Contains(p[len(prefix):], "/") {
			names = append(names, p[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) ReadFile(p string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	f, ok := m.files[path.Clean(p)]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: p, Err: os.ErrNotExist}
	}
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, nil
}

func (m *MemFS) Create(p string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	p = path.Clean(p)
	if !m.dirs[path.Dir(p)] {
		return nil, &os.PathError{Op: "create", Path: p, Err: os.ErrNotExist}
	}
	m.files[p] = &memFile{}
	return &memHandle{fs: m, path: p}, nil
}

func (m *MemFS) Remove(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	p = path.Clean(p)
	if _, ok := m.files[p]; !ok {
		return &os.PathError{Op: "remove", Path: p, Err: os.ErrNotExist}
	}
	delete(m.files, p)
	return nil
}

func (m *MemFS) Rename(oldPath, newPath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	oldPath, newPath = path.Clean(oldPath), path.Clean(newPath)
	f, ok := m.files[oldPath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldPath, Err: os.ErrNotExist}
	}
	delete(m.files, oldPath)
	m.files[newPath] = f
	return nil
}

func (m *MemFS) SyncDir(dir string) error {
	if h := m.held(&m.dirHold); h != nil {
		h.park()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	m.syncs++
	if m.failSyncAt != 0 && m.syncs >= m.failSyncAt {
		return fmt.Errorf("syncdir %s: %w", dir, ErrInjectedSync)
	}
	return nil
}

// memHandle is an open MemFS file.
type memHandle struct {
	fs     *MemFS
	path   string
	closed bool
}

func (h *memHandle) Write(b []byte) (int, error) {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return 0, ErrCrashed
	}
	if h.closed {
		return 0, os.ErrClosed
	}
	f, ok := m.files[h.path]
	if !ok {
		// Removed or renamed away while open; MemFS keeps it simple and
		// reports the file gone rather than modelling orphaned inodes.
		return 0, &os.PathError{Op: "write", Path: h.path, Err: os.ErrNotExist}
	}
	m.writes++
	if m.crashAt != 0 && m.writes >= m.crashAt {
		// Tear the write: persist only the first half of this buffer,
		// then die. The torn bytes sit above syncedLen, so a subsequent
		// Crash(0) discards them and Crash(n>0) keeps a prefix — both
		// shapes the torn-tail parser must survive.
		f.data = append(f.data, b[:len(b)/2]...)
		m.crashed = true
		return 0, fmt.Errorf("write %s: %w", h.path, ErrCrashed)
	}
	if m.failWriteAt != 0 && m.writes >= m.failWriteAt {
		return 0, fmt.Errorf("write %s: %w", h.path, ErrInjectedWrite)
	}
	f.data = append(f.data, b...)
	return len(b), nil
}

func (h *memHandle) Sync() error {
	m := h.fs
	if hold := m.held(&m.syncHold); hold != nil {
		hold.park()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if h.closed {
		return os.ErrClosed
	}
	f, ok := m.files[h.path]
	if !ok {
		return &os.PathError{Op: "sync", Path: h.path, Err: os.ErrNotExist}
	}
	m.syncs++
	if m.failSyncAt != 0 && m.syncs >= m.failSyncAt {
		return fmt.Errorf("sync %s: %w", h.path, ErrInjectedSync)
	}
	f.syncedLen = len(f.data)
	return nil
}

func (h *memHandle) Close() error {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	h.closed = true
	return nil
}
