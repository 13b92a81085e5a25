package wal

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path"
	"slices"
	"sort"

	"tinystm/internal/txn"
)

// Checkpoint files (ckpt-%020d.ckpt) hold one full key/value snapshot:
//
//	[8] "TSCKPT01"
//	[8] clock epoch   [8] snapshot timestamp   (informational)
//	[8] pair count
//	per pair: [8] key  [8] value   (sorted by key — deterministic bytes)
//	[4] CRC-32C of everything above
//
// A checkpoint is written to ckpt.tmp, fsynced, renamed into place, and
// the directory fsynced: it either exists whole or not at all. Old WAL
// segments are truncated only after the rename is durable, and old
// checkpoints are removed only after that, so a crash at any point
// leaves either extra segments (replay is idempotent over them) or extra
// checkpoints (recovery just picks the newest valid one).
const ckptMagic = "TSCKPT01"

const ckptTmpName = "ckpt.tmp"

func ckptName(idx uint64) string { return fmt.Sprintf("ckpt-%020d.ckpt", idx) }

func parseCkptName(name string) (uint64, bool) {
	return parseIndexedName(name, "ckpt-", ".ckpt")
}

// WriteCheckpoint durably writes snapshot pairs — one per key, which it
// sorts in place — as checkpoint index idx. epoch and ts record the
// snapshot position for diagnostics; recovery never compares them
// (truncation discipline makes that unnecessary).
func WriteCheckpoint(fs FS, dir string, idx, epoch, ts uint64, pairs []txn.KV) error {
	if fs == nil {
		fs = OS
	}
	slices.SortFunc(pairs, func(a, b txn.KV) int { return cmp.Compare(a.Key, b.Key) })

	buf := make([]byte, 0, len(ckptMagic)+24+len(pairs)*16+4)
	buf = append(buf, ckptMagic...)
	buf = le64(buf, epoch)
	buf = le64(buf, ts)
	buf = le64(buf, uint64(len(pairs)))
	for _, kv := range pairs {
		buf = le64(buf, kv.Key)
		buf = le64(buf, kv.Val)
	}
	buf = le32(buf, crc32.Checksum(buf, crcTable))

	tmp := path.Join(dir, ckptTmpName)
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: create checkpoint: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("wal: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: fsync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close checkpoint: %w", err)
	}
	final := path.Join(dir, ckptName(idx))
	if err := fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: publish checkpoint: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: fsync dir after checkpoint: %w", err)
	}
	return nil
}

// loadCheckpointFile parses one checkpoint file.
func loadCheckpointFile(fs FS, p string) (map[uint64]uint64, uint64, uint64, error) {
	data, err := fs.ReadFile(p)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(data) < len(ckptMagic)+24+4 {
		return nil, 0, 0, &CorruptError{Path: p, Offset: 0, Reason: "checkpoint too short"}
	}
	if string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, 0, 0, &CorruptError{Path: p, Offset: 0, Reason: "bad checkpoint magic"}
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, 0, 0, &CorruptError{Path: p, Offset: 0, Reason: "checkpoint checksum mismatch"}
	}
	off := len(ckptMagic)
	epoch := binary.LittleEndian.Uint64(body[off:])
	ts := binary.LittleEndian.Uint64(body[off+8:])
	count := binary.LittleEndian.Uint64(body[off+16:])
	off += 24
	if rest := uint64(len(body) - off); rest%16 != 0 || rest/16 != count {
		return nil, 0, 0, &CorruptError{Path: p, Offset: off, Reason: "checkpoint pair count mismatch"}
	}
	pairs := make(map[uint64]uint64, count)
	for i := uint64(0); i < count; i++ {
		pairs[binary.LittleEndian.Uint64(body[off:])] = binary.LittleEndian.Uint64(body[off+8:])
		off += 16
	}
	return pairs, epoch, ts, nil
}

// latestCheckpoint finds the newest checkpoint in names that parses and
// checksums clean, falling back index by index. ok=false when none
// exists. A corrupt newer checkpoint is skipped, not fatal: the tmp →
// rename protocol means an interrupted writer leaves no numbered file at
// all, so a corrupt one is bit rot — and the only state we can still
// offer is the older snapshot plus whatever segments survive. The skip
// is reported through ReplayStats.CheckpointsSkipped so operators see it.
func latestCheckpoint(fs FS, dir string, names []string) (pairs map[uint64]uint64, idx uint64, skipped int, ok bool) {
	var idxs []uint64
	for _, name := range names {
		if i, o := parseCkptName(name); o {
			idxs = append(idxs, i)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] > idxs[j] })
	for _, i := range idxs {
		p, _, _, err := loadCheckpointFile(fs, path.Join(dir, ckptName(i)))
		if err != nil {
			skipped++
			continue
		}
		return p, i, skipped, true
	}
	return nil, 0, skipped, false
}

// RemoveCheckpointsBefore deletes checkpoints with index < idx and any
// leftover ckpt.tmp from an interrupted writer.
func RemoveCheckpointsBefore(fs FS, dir string, idx uint64) error {
	if fs == nil {
		fs = OS
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	removed := false
	for _, name := range names {
		if i, ok := parseCkptName(name); (ok && i < idx) || name == ckptTmpName {
			if err := fs.Remove(path.Join(dir, name)); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		return fs.SyncDir(dir)
	}
	return nil
}
