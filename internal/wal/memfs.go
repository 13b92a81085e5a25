package wal

import (
	"errors"
	"fmt"
	"os"
	"path"
	"slices"
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
//   - Every file tracks its durable image (the bytes as of the last Sync)
//     separately from its live contents. Crash(keep) rewinds each file to
//     that durable image plus at most keep torn bytes — the
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
// NewMemFS files refuse Reserve, so they only grow and what is unsynced
// is always a tail: the log's append fallback runs under every test that
// does not ask for more. NewReservingMemFS models the disk a reserved
// segment lives on: Reserve extends a file with zeros, writes then land
// inside it, and a crash keeps ANY subset of the sectors written since
// the last Sync — the first few, the last, all but one in the middle
// (CrashSectors). CrashAtWrite(n) there lets the nth write reach the live
// image whole before the process dies; which of its sectors the disk then
// kept is the crash's choice.
//
// Simplification, documented on purpose: metadata operations (Create,
// Remove, Rename, MkdirAll, and a file's Reserve and Truncate) are durable
// immediately, as if fsynced after each. The WAL still syncs so the
// real-OS path is correct; MemFS just cannot lose a rename or a size.
type MemFS struct {
	mu        sync.Mutex
	dirs      map[string]bool
	files     map[string]*memFile
	reserving bool

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

// memFile is one file as two images, live (data) and durable, and the
// byte range written since the two last agreed.
type memFile struct {
	data, durable    []byte
	dirtyLo, dirtyHi int
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{dirs: map[string]bool{".": true}, files: map[string]*memFile{}}
}

// NewReservingMemFS returns an empty in-memory filesystem whose files can
// be reserved and are overwritten in place.
func NewReservingMemFS() *MemFS {
	m := NewMemFS()
	m.reserving = true
	return m
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
// image plus at most keepUnsyncedBytes of torn tail, faults are
// disarmed, and the filesystem is usable again. Open handles from before
// the crash must not be reused. On a reserving MemFS the tail kept is the
// first unsynced sectors, as many as it takes to hold that many bytes.
func (m *MemFS) Crash(keepUnsyncedBytes int) {
	m.reboot(keepUnsyncedBytes, func(i, _ int) bool { return i*sectorSize < keepUnsyncedBytes })
}

// CrashSectors is Crash for a reserving MemFS with the disk's choice
// spelled out: of the n sectors a file had written and not yet synced,
// in offset order, the ith survives iff keep(i, n). A file grows to hold
// a surviving sector, zeros where a lost one would have been. (A plain
// MemFS has no sectors to keep: Crash(0).)
func (m *MemFS) CrashSectors(keep func(i, n int) bool) { m.reboot(0, keep) }

func (m *MemFS) reboot(keepBytes int, keepSector func(i, n int) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.files {
		img := f.durable
		if m.reserving {
			img = f.keepSectors(keepSector)
		} else if tail := len(f.data) - len(img); tail > 0 {
			// Nothing was ever written but at the end: a prefix of the
			// unsynced tail survives.
			img = f.data[:len(img)+min(tail, keepBytes)]
		}
		f.durable = append([]byte(nil), img...)
		f.data = append(f.data[:0], img...)
		f.dirtyLo, f.dirtyHi = 0, 0
	}
	m.crashed = false
	m.failWriteAt = 0
	m.failSyncAt = 0
	m.crashAt = 0
}

// keepSectors returns f's durable image plus the unsynced sectors keep
// picks.
func (f *memFile) keepSectors(keep func(i, n int) bool) []byte {
	img := f.durable
	if lo, hi := f.dirtyLo, min(f.dirtyHi, len(f.data)); lo < hi {
		first := lo / sectorSize
		n := (hi-1)/sectorSize - first + 1
		for i := 0; i < n; i++ {
			if !keep(i, n) {
				continue
			}
			from, to := (first+i)*sectorSize, min((first+i+1)*sectorSize, len(f.data))
			img = fit(img, max(to, len(img)))
			copy(img[from:to], f.data[from:to])
		}
	}
	return img
}

// resize sets the file's size in both images: metadata, durable at once.
func (f *memFile) resize(size int) {
	f.data = fit(f.data, size)
	f.durable = fit(f.durable, size)
}

// fit returns b cut or zero-extended to size, growing its array only when
// the capacity runs out, as append would.
func fit(b []byte, size int) []byte {
	if size <= len(b) {
		return b[:size]
	}
	old := len(b)
	b = slices.Grow(b, size-old)[:size]
	clear(b[old:])
	return b
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

// memHandle is an open MemFS file; off is where its next Write lands.
type memHandle struct {
	fs     *MemFS
	path   string
	off    int
	closed bool
}

func (h *memHandle) Write(b []byte) (int, error) {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := h.file("write")
	if err != nil {
		return 0, err
	}
	m.writes++
	if m.crashAt != 0 && m.writes >= m.crashAt {
		// Tear the write, then die. A plain file takes only the first half
		// of this buffer: the torn bytes are unsynced, so a subsequent
		// Crash(0) discards them and Crash(n>0) keeps a prefix — both
		// shapes the torn-tail parser must survive. A reserving file
		// takes the buffer whole, unsynced, and the crash picks sectors.
		if !m.reserving {
			b = b[:len(b)/2]
		}
		h.write(f, b)
		m.crashed = true
		return 0, fmt.Errorf("write %s: %w", h.path, ErrCrashed)
	}
	if m.failWriteAt != 0 && m.writes >= m.failWriteAt {
		return 0, fmt.Errorf("write %s: %w", h.path, ErrInjectedWrite)
	}
	h.write(f, b)
	return len(b), nil
}

// write puts b at the handle's position in f's live image, growing the
// file if it runs past the end, and widens the unsynced range.
func (h *memHandle) write(f *memFile, b []byte) {
	end := h.off + len(b)
	f.data = fit(f.data, max(end, len(f.data)))
	copy(f.data[h.off:], b)
	if f.dirtyLo == f.dirtyHi {
		f.dirtyLo, f.dirtyHi = h.off, end
	} else {
		f.dirtyLo, f.dirtyHi = min(f.dirtyLo, h.off), max(f.dirtyHi, end)
	}
	h.off = end
}

// file returns the file op is about to act on; the caller holds the MemFS
// lock.
func (h *memHandle) file(op string) (*memFile, error) {
	if h.fs.crashed {
		return nil, ErrCrashed
	}
	if h.closed {
		return nil, os.ErrClosed
	}
	f, ok := h.fs.files[h.path]
	if !ok {
		// Removed or renamed away while open; MemFS keeps it simple and
		// reports the file gone rather than modelling orphaned inodes.
		return nil, &os.PathError{Op: op, Path: h.path, Err: os.ErrNotExist}
	}
	return f, nil
}

// Reserve implements Reserver on a reserving MemFS; a plain one refuses,
// as a filesystem without fallocate does.
func (h *memHandle) Reserve(size int64) error {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := h.file("reserve")
	if err != nil {
		return err
	}
	if !m.reserving {
		return fmt.Errorf("reserve %s: %w", h.path, errors.ErrUnsupported)
	}
	if int(size) > len(f.data) {
		f.resize(int(size))
	}
	return nil
}

// Truncate implements Reserver.
func (h *memHandle) Truncate(size int64) error {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := h.file("truncate")
	if err != nil {
		return err
	}
	f.resize(int(size))
	return nil
}

func (h *memHandle) Sync() error {
	m := h.fs
	if hold := m.held(&m.syncHold); hold != nil {
		hold.park()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := h.file("sync")
	if err != nil {
		return err
	}
	m.syncs++
	if m.failSyncAt != 0 && m.syncs >= m.failSyncAt {
		return fmt.Errorf("sync %s: %w", h.path, ErrInjectedSync)
	}
	if lo, hi := f.dirtyLo, min(f.dirtyHi, len(f.data)); lo < hi {
		f.durable = fit(f.durable, max(hi, len(f.durable)))
		copy(f.durable[lo:hi], f.data[lo:hi])
	}
	f.dirtyLo, f.dirtyHi = 0, 0
	return nil
}

func (h *memHandle) Close() error {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	h.closed = true
	return nil
}
