package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"path"
	"testing"

	"tinystm/internal/txn"
)

// fuzzSeedLog writes the log TestCheckpointThenTruncate writes — a sealed
// segment, a checkpoint of it, a tail segment — without truncating, and
// returns the three files' bytes.
func fuzzSeedLog(f *testing.F) (first, final, ckpt []byte) {
	fs := NewMemFS()
	l, err := Open(Config{Dir: "wal", FS: fs})
	if err != nil {
		f.Fatal(err)
	}
	app := func(ts uint64, ops ...txn.RedoOp) {
		if err := l.Append(0, ts, ops).Wait(); err != nil {
			f.Fatal(err)
		}
	}
	app(1, put(1, 10))
	app(2, put(2, 20), put(1, 11))
	firstName := segName(l.Stats().Segment)
	if _, err := l.Rotate(); err != nil {
		f.Fatal(err)
	}
	if err := WriteCheckpoint(fs, "wal", 1, 0, 2, map[uint64]uint64{1: 11, 2: 20}); err != nil {
		f.Fatal(err)
	}
	app(3, put(1, 12), del(2))
	app(4, put(3, 30))
	finalName := segName(l.Stats().Segment)
	l.Close()
	read := func(name string) []byte {
		b, err := fs.ReadFile(path.Join("wal", name))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	return read(firstName), read(finalName), read(ckptName(1))
}

// frameWalk is the test's own reading of the segment format, checking
// only what a frame's envelope promises: it returns how many leading
// bytes of data are the file magic plus whole frames whose magic, length
// and checksum all hold, and whether what follows is merely short (a
// prefix of a frame: a torn write) rather than wrong.
func frameWalk(data []byte) (good int, tornOnly bool) {
	if len(data) < len(segMagic) {
		return 0, true
	}
	if string(data[:len(segMagic)]) != segMagic {
		return 0, false
	}
	off := len(segMagic)
	for off < len(data) {
		rem := data[off:]
		if len(rem) < frameHeaderLen {
			return off, true
		}
		plen := int(binary.LittleEndian.Uint32(rem[4:]))
		if string(rem[:4]) != frameMagic || plen > maxFramePayload {
			return off, false
		}
		if len(rem) < frameHeaderLen+plen {
			return off, true
		}
		if crc32.Checksum(rem[frameHeaderLen:frameHeaderLen+plen], crcTable) != binary.LittleEndian.Uint32(rem[8:]) {
			return off, false
		}
		off += frameHeaderLen + plen
	}
	return off, true
}

// reseal rewrites the checksum of every frame whose envelope is otherwise
// whole, so a mutated payload reaches the record decoder instead of dying
// at the CRC.
func reseal(data []byte) {
	if len(data) < len(segMagic) {
		return
	}
	for off := len(segMagic); len(data)-off >= frameHeaderLen; {
		plen := int(binary.LittleEndian.Uint32(data[off+4:]))
		if plen > maxFramePayload || len(data)-off < frameHeaderLen+plen {
			return
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+plen]
		binary.LittleEndian.PutUint32(data[off+8:], crc32.Checksum(payload, crcTable))
		off += frameHeaderLen + plen
	}
}

// FuzzReplay feeds Replay a two-segment log plus a checkpoint, each file
// any bytes at all. Whatever they are, recovery never panics; damage is a
// CorruptError unless it is a short tail of the FINAL segment; nothing
// after the first bad byte is ever applied; a corrupt checkpoint is
// skipped and counted; and replaying the same directory twice gives the
// same answer.
func FuzzReplay(f *testing.F) {
	first, final, ckpt := fuzzSeedLog(f)
	f.Add(first, final, ckpt, false)
	f.Add(first, final[:len(final)-5], ckpt, false) // torn tail
	f.Add(first[:len(first)-5], final, ckpt, false) // torn mid-log
	f.Add(first, final, []byte(nil), false)         // no checkpoint
	f.Add(first, final, ckpt[:len(ckpt)-1], true)   // resealed: structure, not CRC, decides
	f.Add([]byte(nil), []byte(segMagic), []byte(ckptMagic), true)
	// A checksummed checkpoint claiming 2^60 pairs (x16 wraps to 0 bytes),
	// and testdata/fuzz holds the frame claiming 2^32-1 records: counts
	// are checked against the bytes present before anything is sized by them.
	huge := le64(append([]byte(ckptMagic), make([]byte, 16)...), 1<<60)
	f.Add(first, final, le32(huge, 0), true)

	f.Fuzz(func(t *testing.T, first, final, ckpt []byte, sealed bool) {
		first, final, ckpt = append([]byte(nil), first...), append([]byte(nil), final...), append([]byte(nil), ckpt...)
		if sealed {
			reseal(first)
			reseal(final)
			if n := len(ckpt) - 4; n >= 0 {
				binary.LittleEndian.PutUint32(ckpt[n:], crc32.Checksum(ckpt[:n], crcTable))
			}
		}
		fs := NewMemFS()
		if err := fs.MkdirAll("wal"); err != nil {
			t.Fatal(err)
		}
		write := func(name string, data []byte) {
			h, err := fs.Create(path.Join("wal", name))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
			h.Sync()
			h.Close()
		}
		write(segName(1), first)
		write(segName(2), final)
		if len(ckpt) > 0 {
			write(ckptName(1), ckpt)
		}

		state, stats, err := Replay(fs, "wal")
		firstGood, _ := frameWalk(first)
		finalGood, finalTorn := frameWalk(final)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Replay failed with %v, want a CorruptError", err)
			}
			return
		}
		// Recovery accepted the log: then every byte of the sealed segment
		// was a whole valid frame, and the final one is valid frames plus
		// at most a short tail — dropped and counted, never skipped over.
		if firstGood != len(first) {
			t.Fatalf("accepted a non-final segment that is bad at byte %d of %d", firstGood, len(first))
		}
		if !finalTorn {
			t.Fatalf("accepted a final segment with a corrupt frame at byte %d", finalGood)
		}
		if stats.TornBytes != len(final)-finalGood {
			t.Fatalf("TornBytes = %d, want %d", stats.TornBytes, len(final)-finalGood)
		}
		if len(ckpt) > 0 && stats.CheckpointFound == (stats.CheckpointsSkipped == 1) {
			t.Fatalf("one checkpoint on disk: found=%v skipped=%d", stats.CheckpointFound, stats.CheckpointsSkipped)
		}
		state2, stats2, err := Replay(fs, "wal")
		if err != nil || stats2 != stats || !maps.Equal(state, state2) {
			t.Fatalf("second replay differs: %v\n%+v\n%+v", err, stats, stats2)
		}
	})
}
