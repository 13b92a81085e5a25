package wal

import (
	"bytes"
	"errors"
	"path"
	"testing"

	"tinystm/internal/txn"
)

// Tests of reserved segments: what the log does to the file, and where
// recovery draws the line between a torn write and damage.

// wideRecord is one record of n puts: 36+17n frame bytes, so n = 90 makes
// a frame of four sectors.
func wideRecord(ts uint64, n int) []Record {
	ops := make([]txn.RedoOp, n)
	for i := range ops {
		ops[i] = put(^uint64(i), ^(ts*1000 + uint64(i))) // no zero bytes but the kind
	}
	return []Record{{TS: ts, Ops: ops}}
}

// TestTornOrCorrupt is the classifier's table. Every case is a final
// segment unless it says sealed: the file magic, frame A (one sector's
// worth, acked), then what the case does with frame B — four sectors,
// written at offset b — and with the reserved zeros behind it.
func TestTornOrCorrupt(t *testing.T) {
	a := appendFrame([]byte(segMagic), wideRecord(1, 3))
	b := len(a)
	frameB := appendFrame(nil, wideRecord(2, 90))
	frameC := appendFrame(nil, wideRecord(3, 1))
	const reserve = 8 << 10
	// sector returns the bounds of B's ith sector-piece within the file.
	sector := func(i int) (lo, hi int) {
		lo, hi = b, (b/sectorSize+1)*sectorSize
		for ; i > 0; i-- {
			lo, hi = hi, hi+sectorSize
		}
		return lo, min(hi, b+len(frameB))
	}
	// disk builds the file: A, then B with mutate applied, then extra,
	// then zeros up to the reservation.
	disk := func(mutate func(fb []byte), extra ...byte) []byte {
		fb := bytes.Clone(frameB)
		if mutate != nil {
			mutate(fb)
		}
		d := append(append(bytes.Clone(a), fb...), extra...)
		return append(d, make([]byte, reserve-len(d))...)
	}
	blank := func(sectors ...int) func([]byte) {
		return func(fb []byte) {
			for _, i := range sectors {
				lo, hi := sector(i)
				clear(fb[lo-b : hi-b])
			}
		}
	}
	flip := func(at int) func([]byte) { return func(fb []byte) { fb[at] ^= 0x40 } }
	both := func(fs ...func([]byte)) func([]byte) {
		return func(fb []byte) {
			for _, f := range fs {
				f(fb)
			}
		}
	}
	// A torn tail is measured from B's first byte to the file's last
	// non-zero one.
	const torn, whole = true, false
	cases := []struct {
		name    string
		data    []byte
		sealed  bool
		records int // recovered; -1 = CorruptError
		torn    bool
	}{
		{"clean end: zeros behind the last frame", disk(nil), false, 2, whole},
		{"no tail at all (a log that was never reserved)", disk(nil)[:b+len(frameB)], false, 2, whole},
		{"nothing of B landed", disk(blank(0, 1, 2, 3)), false, 1, whole},
		{"file ends inside B's header", disk(nil)[:b+7], false, 1, torn},
		{"file ends inside B's payload", disk(nil)[:b+300], false, 1, torn},
		{"header whole, payload sector missing", disk(blank(2)), false, 1, torn},
		{"only B's first sector landed", disk(blank(1, 2, 3)), false, 1, torn},
		{"second sector landed without the first", disk(blank(0, 2, 3)), false, 1, torn},
		{"last sector landed alone", disk(blank(0, 1, 2)), false, 1, torn},
		{"B whole but for one flipped payload bit", disk(flip(200)), false, -1, whole},
		{"B whole but for a flipped magic bit", disk(flip(1)), false, -1, whole},
		{"B whole but for an absurd length", disk(func(fb []byte) { fb[7] = 0x7f }), false, -1, whole},
		{"flipped bit and a missing sector: reads as torn (what the rule gives up)", disk(both(flip(20), blank(2))), false, 1, torn},
		{"valid frame behind a bit-flipped one", disk(flip(200), frameC...), false, -1, whole},
		{"valid frame behind one with a missing sector", disk(blank(2), frameC...), false, -1, whole},
		{"valid frame behind one whose header sector is missing", disk(blank(0), frameC...), false, -1, whole},
		{"stray bytes behind a frame with a missing sector", disk(blank(2), 0, 0, 0, 1), false, -1, whole},
		{"sealed: zero tail", disk(nil), true, -1, whole},
		{"sealed: ends inside a frame", disk(nil)[:b+300], true, -1, whole},
		{"sealed: a missing sector", disk(blank(2))[:b+len(frameB)], true, -1, whole},
		{"sealed: whole", disk(nil)[:b+len(frameB)], true, 2, whole},
		{"reserved, header never written", make([]byte, reserve), false, 0, whole},
		{"created, never reserved", nil, false, 0, whole},
		{"part of the file magic", append([]byte(segMagic[:5]), make([]byte, 100)...), false, 0, torn},
		{"sealed: reserved, header never written", make([]byte, reserve), true, -1, whole},
		{"not the file magic", append([]byte("TSWAX"), make([]byte, 100)...), false, -1, whole},
	}
	for _, c := range cases {
		wantTorn := 0
		if c.torn {
			wantTorn = len(bytes.TrimRight(c.data, "\x00"))
			if c.records > 0 {
				wantTorn -= b
			}
		}
		recs, torn, err := parseSegment("seg", c.data, !c.sealed)
		var ce *CorruptError
		switch {
		case c.records < 0:
			if !errors.As(err, &ce) {
				t.Errorf("%s: %d records, torn %d, err %v; want a CorruptError", c.name, len(recs), torn, err)
			}
		case err != nil || len(recs) != c.records || torn != wantTorn:
			t.Errorf("%s: %d records, torn %d, err %v; want %d records, torn %d", c.name, len(recs), torn, err, c.records, wantTorn)
		}
		// The fuzz oracle, written from the rule and not from the parser,
		// agrees case by case.
		if _, otorn, ok := frameWalk(c.data, !c.sealed); ok != (c.records >= 0) || ok && otorn != wantTorn {
			t.Errorf("%s: oracle says ok=%v torn=%d", c.name, ok, otorn)
		}
	}
}

// TestTornHeaderAcrossSectors: a header that straddles a sector boundary
// and lost its second half shows a length that is not the frame's — zero,
// with a zero checksum to match, when the boundary falls right behind the
// magic. The bytes "behind" that length are the frame's own later sectors,
// not proof of an acked frame, and the frame is not an empty one.
func TestTornHeaderAcrossSectors(t *testing.T) {
	for landed := 1; landed < frameHeaderLen; landed++ {
		n := 0
		for (len(segMagic)+36+17*n)%sectorSize != sectorSize-landed {
			n++
		}
		a := appendFrame([]byte(segMagic), wideRecord(1, n))
		b := len(a) // `landed` bytes short of a sector boundary
		d := append(a, appendFrame(nil, wideRecord(2, 90))...)
		end := len(d)
		d = append(d, make([]byte, 4096)...)
		for _, lost := range []struct {
			name     string
			from, to int
		}{
			{"the next sector", b + landed, b + landed + sectorSize},
			{"all that follows", b + landed, end},
			{"the first piece", b, b + landed},
		} {
			dd := bytes.Clone(d)
			clear(dd[lost.from:lost.to])
			want := len(bytes.TrimRight(dd, "\x00")) - b
			recs, torn, err := parseSegment("seg", dd, true)
			if err != nil || len(recs) != 1 || torn != want {
				t.Errorf("%d header bytes before the boundary, lost %s: %d records, torn %d, err %v; want 1 record, torn %d",
					landed, lost.name, len(recs), torn, err, want)
			}
			if _, otorn, ok := frameWalk(dd, true); !ok || otorn != want {
				t.Errorf("%d header bytes before the boundary, lost %s: oracle says ok=%v torn=%d", landed, lost.name, ok, otorn)
			}
		}
	}
}

// TestZeroBytesInsideAValidFrame: zeros are not a verdict by themselves. A
// frame whose payload is sectors of zeros parses if its checksum holds,
// and a frame that ends in zero bytes is not cut short by the search for
// where the reservation begins.
func TestZeroBytesInsideAValidFrame(t *testing.T) {
	zeros := make([]txn.RedoOp, 100) // put(0, 0) a hundred times over: 1700 zero bytes
	d := appendFrame([]byte(segMagic), []Record{{Ops: zeros}})
	d = appendFrame(d, []Record{{TS: 1, Ops: []txn.RedoOp{put(9, 0)}}}) // ends in eight zero bytes
	for _, tail := range []int{0, 5000} {
		recs, torn, err := parseSegment("seg", append(bytes.Clone(d), make([]byte, tail)...), true)
		if err != nil || len(recs) != 2 || torn != 0 {
			t.Fatalf("tail %d: %d records, torn %d, err %v; want 2 records", tail, len(recs), torn, err)
		}
	}
}

// TestSegmentReservedThenSealed follows one segment through its life on a
// reserving filesystem: created at full size, frames written into the
// zeros, cut back to exactly the bytes a never-reserved log would hold
// when it is sealed — by Rotate before the next segment exists, by Close
// for the last one — with one sync more per seal.
func TestSegmentReservedThenSealed(t *testing.T) {
	write := func(fs *MemFS) (sealed, closed []byte, st Stats) {
		l := openTest(t, fs, "wal", Config{SegmentBytes: 1 << 12})
		if got := l.Stats().Preallocated; got != fs.reserving {
			t.Fatalf("Preallocated = %v on a MemFS with reserving = %v", got, fs.reserving)
		}
		for ts := uint64(1); ts <= 3; ts++ {
			if err := l.Append(0, ts, []txn.RedoOp{put(ts, ts*10)}).Wait(); err != nil {
				t.Fatal(err)
			}
		}
		first := path.Join("wal", segName(l.Stats().Segment))
		if fs.reserving {
			if b, _ := fs.ReadFile(first); len(b) != 1<<12+reserveSlack {
				t.Fatalf("open segment is %d bytes, want the reservation", len(b))
			}
		}
		if _, err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
		sealed, _ = fs.ReadFile(first)
		if err := l.Append(0, 4, []txn.RedoOp{put(4, 40)}).Wait(); err != nil {
			t.Fatal(err)
		}
		second := path.Join("wal", segName(l.Stats().Segment))
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		closed, _ = fs.ReadFile(second)
		return sealed, closed, l.Stats()
	}
	plainSealed, plainClosed, plain := write(NewMemFS())
	sealed, closed, reserving := write(NewReservingMemFS())
	if !bytes.Equal(sealed, plainSealed) || !bytes.Equal(closed, plainClosed) {
		t.Errorf("sealed segments differ from never-reserved ones: %d and %d bytes, want %d and %d",
			len(sealed), len(closed), len(plainSealed), len(plainClosed))
	}
	if want := appendFrame(appendFrame(appendFrame([]byte(segMagic),
		[]Record{{TS: 1, Ops: []txn.RedoOp{put(1, 10)}}}),
		[]Record{{TS: 2, Ops: []txn.RedoOp{put(2, 20)}}}),
		[]Record{{TS: 3, Ops: []txn.RedoOp{put(3, 30)}}}); !bytes.Equal(plainSealed, want) {
		t.Errorf("a never-reserved segment is not magic plus frames: %d bytes, want %d", len(plainSealed), len(want))
	}
	if reserving.Syncs != plain.Syncs+2 {
		t.Errorf("Syncs = %d reserving, %d plain; want one more per seal (2)", reserving.Syncs, plain.Syncs)
	}
}

// TestReopenAfterClose: Close seals, so a log can be closed and reopened
// any number of times and every segment but the newest stays strictly
// parseable.
func TestReopenAfterClose(t *testing.T) {
	fs := NewReservingMemFS()
	for round := uint64(1); round <= 3; round++ {
		l := openTest(t, fs, "wal", Config{})
		if err := l.Append(0, round, []txn.RedoOp{put(round, round)}).Wait(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		state, stats := replayTest(t, fs, "wal")
		if len(state) != int(round) || stats.TornBytes != 0 {
			t.Fatalf("round %d: state %v, stats %+v", round, state, stats)
		}
	}
}

// TestReserveRefusedHalfWay: a Reserve that fails after extending the file
// must leave no zero tail behind, or the segment could never be sealed.
func TestReserveRefusedHalfWay(t *testing.T) {
	fs := halfReservingFS{NewReservingMemFS()}
	l := openTest(t, fs, "wal", Config{})
	if l.Stats().Preallocated {
		t.Fatal("Preallocated after Reserve failed")
	}
	if err := l.Append(0, 1, []txn.RedoOp{put(1, 10)}).Wait(); err != nil {
		t.Fatal(err)
	}
	first := path.Join("wal", segName(l.Stats().Segment))
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	want := appendFrame([]byte(segMagic), []Record{{TS: 1, Ops: []txn.RedoOp{put(1, 10)}}})
	if b, _ := fs.ReadFile(first); !bytes.Equal(b, want) {
		t.Fatalf("sealed segment is %d bytes, want %d: magic and one frame", len(b), len(want))
	}
	l.Close()
	if state, _ := replayTest(t, fs, "wal"); state[1] != 10 {
		t.Fatalf("state = %v", state)
	}
}

// halfReservingFS hands out files whose Reserve extends the file by a
// sector and then fails, as fallocate may when the disk fills.
type halfReservingFS struct{ *MemFS }

func (fs halfReservingFS) Create(p string) (File, error) {
	f, err := fs.MemFS.Create(p)
	if err != nil {
		return nil, err
	}
	return halfReservingFile{f.(*memHandle)}, nil
}

type halfReservingFile struct{ *memHandle }

func (f halfReservingFile) Reserve(int64) error {
	if err := f.memHandle.Reserve(sectorSize); err != nil {
		return err
	}
	return errors.New("no space left on device")
}
