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
	if err := WriteCheckpoint(fs, "wal", 1, 0, 2, []txn.KV{{Key: 2, Val: 20}, {Key: 1, Val: 11}}); err != nil {
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

// wholeFrame is the test's own reading of one frame's envelope: the size
// of the frame data[off:] begins with if its magic, length and checksum
// all hold, else 0.
func wholeFrame(data []byte, off int) int {
	if len(data)-off < 12 || string(data[off:off+4]) != "FRME" {
		return 0
	}
	plen := int(binary.LittleEndian.Uint32(data[off+4:]))
	if plen < 4 || plen > 1<<28 || len(data)-off-12 < plen { // 4: the record count
		return 0
	}
	if crc32.Checksum(data[off+12:off+12+plen], crcTable) != binary.LittleEndian.Uint32(data[off+8:]) {
		return 0
	}
	return 12 + plen
}

// blankSector is the test's own sector rule: does some 512-byte sector of
// the file hold only zeros in the part of it inside data[lo:hi)?
func blankSector(data []byte, lo, hi int) bool {
	hi = min(hi, len(data))
	for sec := lo / 512; sec*512 < hi; sec++ {
		part := data[max(lo, sec*512):min(hi, sec*512+512)]
		blank := true
		for _, b := range part {
			blank = blank && b == 0
		}
		if blank {
			return true
		}
	}
	return false
}

// frameWalk is the oracle for what recovery may accept, written from the
// format and the rule in README "Durability", not from parseSegment. good
// is how many leading bytes of data are the file magic plus whole valid
// frames. A sealed segment (final false) is ok only if that is all of it.
// The final one is also ok when the rest is zeros, or is one torn frame:
// torn then counts from good to the last non-zero byte.
func frameWalk(data []byte, final bool) (good, torn int, ok bool) {
	content := len(data) // the offset behind the last non-zero byte
	for content > 0 && data[content-1] == 0 {
		content--
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		// No header: fine only as what is left of writing one.
		return 0, content, final && content < len(segMagic) && string(data[:content]) == segMagic[:content]
	}
	good = len(segMagic)
	for n := wholeFrame(data, good); n > 0; n = wholeFrame(data, good) {
		good += n
	}
	if !final {
		return good, 0, good == len(data)
	}
	if content <= good {
		return good, 0, true
	}
	torn = content - good
	switch {
	case len(data)-good < 12:
		return good, torn, true // the file ends inside the header
	case blankSector(data, good, good+12):
		// Header sector lost, length unknown: torn unless a frame follows.
		for p := good + 1; p < content; p++ {
			if wholeFrame(data, p) > 0 {
				return good, torn, false
			}
		}
		return good, torn, true
	case string(data[good:good+4]) != "FRME":
		return good, torn, false
	}
	claimed := 12 + int(binary.LittleEndian.Uint32(data[good+4:]))
	if claimed > 12+1<<28 || content > good+claimed {
		return good, torn, false // absurd, or something was written behind it
	}
	return good, torn, len(data) < good+claimed || blankSector(data, good, good+claimed)
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

// envelopeReasons are the CorruptError reasons that come from a frame's
// or a segment's envelope, the part frameWalk judges.
var envelopeReasons = map[string]bool{
	"truncated non-final segment": true, "bad segment magic": true,
	"truncated frame header": true, "bad frame magic": true, "implausible frame length": true,
	"truncated frame": true, "frame checksum mismatch": true, "frame too short for a payload": true,
}

// FuzzReplay feeds Replay a two-segment log plus a checkpoint, each file
// any bytes at all. Whatever they are, recovery never panics; damage is a
// CorruptError unless it is a zero tail or one torn frame at the end of
// the FINAL segment; nothing after the first bad byte is ever applied; a
// corrupt checkpoint is skipped and counted; and replaying the same
// directory twice gives the same answer.
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
	// A reserved tail behind each file: the end of the log in the final
	// segment, damage in a sealed one, a bad checksum on a checkpoint; and
	// a torn frame in front of one.
	tail := make([]byte, 700)
	padded := func(b []byte) []byte { return append(append([]byte(nil), b...), tail...) }
	f.Add(first, padded(final), ckpt, false)
	f.Add(padded(first), final, ckpt, false)
	f.Add(first, final, padded(ckpt), false)
	f.Add(first, padded(final[:len(final)-5]), ckpt, false)

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
		firstGood, _, firstOK := frameWalk(first, false)
		finalGood, finalTorn, finalOK := frameWalk(final, true)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Replay failed with %v, want a CorruptError", err)
			}
			// And the other way round: a log whose every frame is whole,
			// zero or torn is refused only for what a checksummed payload
			// holds, never for its envelope.
			if firstOK && finalOK && envelopeReasons[ce.Reason] {
				t.Fatalf("refused a log the format accepts: %v", err)
			}
			return
		}
		// Recovery accepted the log: then every byte of the sealed segment
		// was a whole valid frame, and the final one is valid frames plus
		// at most reserved zeros or one torn frame — dropped and counted,
		// never skipped over.
		if !firstOK {
			t.Fatalf("accepted a non-final segment that is bad at byte %d of %d", firstGood, len(first))
		}
		if !finalOK {
			t.Fatalf("accepted a final segment with a corrupt frame at byte %d", finalGood)
		}
		if stats.TornBytes != finalTorn {
			t.Fatalf("TornBytes = %d, want %d", stats.TornBytes, finalTorn)
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
