package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"path"
	"sync/atomic"
	"testing"

	"tinystm/internal/txn"
)

func put(k, v uint64) txn.RedoOp { return txn.RedoOp{Kind: txn.RedoPut, Key: k, Val: v} }
func del(k uint64) txn.RedoOp    { return txn.RedoOp{Kind: txn.RedoDelete, Key: k} }
func openTest(t *testing.T, fs FS, dir string, cfg Config) *Log {
	t.Helper()
	cfg.Dir = dir
	cfg.FS = fs
	l, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func replayTest(t *testing.T, fs FS, dir string) (map[uint64]uint64, ReplayStats) {
	t.Helper()
	state, stats, err := Replay(fs, dir)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return state, stats
}

func TestFrameRoundTrip(t *testing.T) {
	recs := []Record{
		{Epoch: 1, TS: 10, Ops: []txn.RedoOp{put(1, 100), del(2)}},
		{Epoch: 1, TS: 11, Ops: []txn.RedoOp{put(3, 300)}},
		{Epoch: 2, TS: 1, Ops: nil},
	}
	seg := appendFrame([]byte(segMagic), recs[:2])
	seg = appendFrame(seg, recs[2:])
	got, torn, err := parseSegment("seg", seg, true)
	if err != nil || torn != 0 {
		t.Fatalf("parseSegment: torn=%d err=%v", torn, err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d records, want 3", len(got))
	}
	for i := range recs {
		if got[i].Epoch != recs[i].Epoch || got[i].TS != recs[i].TS || len(got[i].Ops) != len(recs[i].Ops) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
		for j := range recs[i].Ops {
			if got[i].Ops[j] != recs[i].Ops[j] {
				t.Fatalf("record %d op %d mismatch", i, j)
			}
		}
	}
}

func TestAppendFlushReplay(t *testing.T) {
	fs := NewMemFS()
	l := openTest(t, fs, "wal", Config{})
	l.Append(0, 1, []txn.RedoOp{put(1, 10)})
	l.Append(0, 2, []txn.RedoOp{put(2, 20), put(1, 11)})
	l.Append(0, 3, []txn.RedoOp{del(2)})
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	state, stats := replayTest(t, fs, "wal")
	want := map[uint64]uint64{1: 11}
	if len(state) != len(want) || state[1] != 11 {
		t.Fatalf("state = %v, want %v", state, want)
	}
	if stats.Records != 3 || stats.Ops != 4 || stats.TornBytes != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// A resolved ticket must mean "on stable storage": after a crash that
// discards everything unsynced, every acked record is still there.
func TestAckImpliesDurable(t *testing.T) {
	fs := NewMemFS()
	l := openTest(t, fs, "wal", Config{})
	if err := l.Append(0, 1, []txn.RedoOp{put(7, 70)}).Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	fs.Crash(0) // drop all unsynced bytes
	state, _ := replayTest(t, fs, "wal")
	if state[7] != 70 {
		t.Fatalf("acked record lost across crash: state=%v", state)
	}
}

func TestRotationAndFreshSegmentOnReopen(t *testing.T) {
	fs := NewMemFS()
	l := openTest(t, fs, "wal", Config{SegmentBytes: 64})
	for i := uint64(0); i < 20; i++ {
		if err := l.Append(0, i+1, []txn.RedoOp{put(i, i*10)}).Wait(); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Fatalf("expected rotations, got %+v", st)
	}
	firstEra := l.Stats().Segment
	l.Close()

	state, stats := replayTest(t, fs, "wal")
	if len(state) != 20 {
		t.Fatalf("replayed %d keys, want 20 (stats %+v)", len(state), stats)
	}
	if stats.Segments < 2 {
		t.Fatalf("expected multiple segments, got %d", stats.Segments)
	}

	// Reopen: writing must continue on a strictly fresh index.
	l2 := openTest(t, fs, "wal", Config{})
	defer l2.Close()
	if l2.Stats().Segment <= firstEra {
		t.Fatalf("reopened segment %d not above prior era %d", l2.Stats().Segment, firstEra)
	}
}

func TestTornTailTolerated(t *testing.T) {
	fs := NewMemFS()
	l := openTest(t, fs, "wal", Config{})
	if err := l.Append(0, 1, []txn.RedoOp{put(1, 10)}).Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// The next frame write tears mid-buffer and the "process" dies.
	fs.CrashAtWrite(1)
	if err := l.Append(0, 2, []txn.RedoOp{put(2, 20)}).Wait(); err == nil {
		t.Fatal("expected append to fail at crash point")
	}
	fs.Crash(3) // restart, keeping 3 torn bytes past the durable prefix
	state, stats := replayTest(t, fs, "wal")
	if state[1] != 10 {
		t.Fatalf("acked record lost: %v", state)
	}
	if _, ok := state[2]; ok {
		t.Fatalf("unacked torn record replayed: %v", state)
	}
	if stats.TornBytes == 0 {
		t.Fatal("expected TornBytes > 0")
	}
}

// corruptFile flips one byte of a MemFS file in place via the FS surface.
func corruptFile(t *testing.T, fs *MemFS, p string, off int) {
	t.Helper()
	data, err := fs.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off = len(data) + off
	}
	data[off] ^= 0xFF
	f, err := fs.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestMidLogCorruptionIsLoud(t *testing.T) {
	fs := NewMemFS()
	l := openTest(t, fs, "wal", Config{})
	if err := l.Append(0, 1, []txn.RedoOp{put(1, 10)}).Wait(); err != nil {
		t.Fatal(err)
	}
	firstSeg := segName(l.Stats().Segment)
	if _, err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if err := l.Append(0, 2, []txn.RedoOp{put(2, 20)}).Wait(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Flip a payload byte in the non-final segment: CRC mismatch on a
	// fully-present frame must fail recovery, not be skipped.
	corruptFile(t, fs, path.Join("wal", firstSeg), -2)
	_, _, err := Replay(fs, "wal")
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Replay error = %v, want CorruptError", err)
	}
}

func TestCorruptFrameInFinalSegmentIsLoud(t *testing.T) {
	fs := NewMemFS()
	l := openTest(t, fs, "wal", Config{})
	if err := l.Append(0, 1, []txn.RedoOp{put(1, 10)}).Wait(); err != nil {
		t.Fatal(err)
	}
	seg := segName(l.Stats().Segment)
	l.Close()
	// A fully-present frame with a bad checksum is corruption even in the
	// final segment: kill -9 leaves short files, it does not rewrite bytes.
	corruptFile(t, fs, path.Join("wal", seg), -2)
	if _, _, err := Replay(fs, "wal"); err == nil {
		t.Fatal("expected corruption error")
	}
}

func TestCheckpointRoundTripAndFallback(t *testing.T) {
	fs := NewMemFS()
	if err := fs.MkdirAll("wal"); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(fs, "wal", 1, 0, 5, []txn.KV{{Key: 2, Val: 20}, {Key: 1, Val: 10}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(fs, "wal", 2, 0, 9, []txn.KV{{Key: 1, Val: 11}}); err != nil {
		t.Fatal(err)
	}
	// Pairs arrive in table order and leave sorted by key: the same state
	// is the same bytes.
	b, _ := fs.ReadFile(path.Join("wal", ckptName(1)))
	if pairs := b[len(ckptMagic)+24:]; binary.LittleEndian.Uint64(pairs) != 1 || binary.LittleEndian.Uint64(pairs[16:]) != 2 {
		t.Fatalf("checkpoint pairs not sorted by key: % x", pairs)
	}
	state, stats := replayTest(t, fs, "wal")
	if !stats.CheckpointFound || stats.CheckpointIndex != 2 || state[1] != 11 || len(state) != 1 {
		t.Fatalf("state=%v stats=%+v", state, stats)
	}

	// Corrupt the newest: recovery falls back to the older one and says so.
	corruptFile(t, fs, path.Join("wal", ckptName(2)), len(ckptMagic)+2)
	state, stats = replayTest(t, fs, "wal")
	if stats.CheckpointIndex != 1 || stats.CheckpointsSkipped != 1 || state[2] != 20 {
		t.Fatalf("fallback: state=%v stats=%+v", state, stats)
	}

	if err := RemoveCheckpointsBefore(fs, "wal", 2); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.ReadDir("wal")
	for _, n := range names {
		if n == ckptName(1) {
			t.Fatal("old checkpoint not removed")
		}
	}
}

// The checkpoint-then-truncate protocol: rotate, checkpoint the state,
// drop the sealed prefix. Replay over {checkpoint + surviving segments}
// must equal the state replayed from everything.
func TestCheckpointThenTruncate(t *testing.T) {
	fs := NewMemFS()
	l := openTest(t, fs, "wal", Config{})
	expect := map[uint64]uint64{}
	app := func(ts, k, v uint64) {
		if err := l.Append(0, ts, []txn.RedoOp{put(k, v)}).Wait(); err != nil {
			t.Fatalf("append: %v", err)
		}
		expect[k] = v
	}
	app(1, 1, 10)
	app(2, 2, 20)

	sealed, err := l.Rotate()
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	var snap []txn.KV
	for k, v := range expect {
		snap = append(snap, txn.KV{Key: k, Val: v})
	}
	if err := WriteCheckpoint(fs, "wal", 1, 0, 2, snap); err != nil {
		t.Fatal(err)
	}
	if err := l.DropSegmentsBefore(sealed); err != nil {
		t.Fatal(err)
	}

	app(3, 1, 12) // post-checkpoint tail
	app(4, 3, 30)
	l.Close()

	state, stats := replayTest(t, fs, "wal")
	if !stats.CheckpointFound {
		t.Fatalf("no checkpoint found: %+v", stats)
	}
	if len(state) != len(expect) {
		t.Fatalf("state=%v want=%v", state, expect)
	}
	for k, v := range expect {
		if state[k] != v {
			t.Fatalf("key %d = %d, want %d", k, state[k], v)
		}
	}
}

// A failed segment write and a failed fsync put the log in the same
// sticky failed state: the batch's tickets carry the fault, later appends
// and Flush fail, Stats says failed, and OnError fires exactly once.
func TestSyncFailureIsStickyAndFiresOnErrorOnce(t *testing.T) {
	faults := []struct {
		name string
		arm  func(*MemFS)
		want error
	}{
		{"sync", func(fs *MemFS) { fs.FailSyncAt(1) }, ErrInjectedSync},
		{"write", func(fs *MemFS) { fs.FailWriteAt(1) }, ErrInjectedWrite},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			fs := NewMemFS()
			var fired atomic.Uint64
			l := openTest(t, fs, "wal", Config{OnError: func(error) { fired.Add(1) }})
			f.arm(fs)
			if err := l.Append(0, 1, []txn.RedoOp{put(1, 10)}).Wait(); !errors.Is(err, f.want) {
				t.Fatalf("first append err = %v, want %v", err, f.want)
			}
			// Sticky: later appends fail without touching the disk again,
			// Flush reports the failure, stats say failed.
			if err := l.Append(0, 2, []txn.RedoOp{put(2, 20)}).Wait(); err == nil {
				t.Fatal("append after failure succeeded")
			}
			if err := l.Flush(); err == nil {
				t.Fatal("Flush after failure succeeded")
			}
			if !l.Stats().Failed {
				t.Fatal("stats do not report failed")
			}
			if got := fired.Load(); got != 1 {
				t.Fatalf("OnError fired %d times, want 1", got)
			}
			l.Close()
		})
	}
}

func TestReplayFreshDirIsEmpty(t *testing.T) {
	state, stats := replayTest(t, NewMemFS(), "nope")
	if len(state) != 0 || stats.CheckpointFound || stats.Segments != 0 {
		t.Fatalf("fresh dir: state=%v stats=%+v", state, stats)
	}
}

// crashShapes are the ways a reserving MemFS disk can treat the n sectors
// it had not synced when the power went: the ith survives iff keep(i, n).
var crashShapes = []struct {
	name string
	keep func(i, n int) bool
}{
	{"none", func(i, n int) bool { return false }},
	{"all", func(i, n int) bool { return true }},
	{"first", func(i, n int) bool { return i == 0 }},
	{"last", func(i, n int) bool { return i == n-1 }},
	{"hole", func(i, n int) bool { return i != n/2 }},
	{"middle", func(i, n int) bool { return i == n/2 }},
}

// The acceptance property: for EVERY possible crash position, every
// write whose ticket resolved cleanly before the crash is present after
// recovery, and nothing else is — except the one frame in flight, when
// the disk happened to keep all of it. Sweeps CrashAtWrite across the
// whole workload, on a plain MemFS (segments grow, the crash tears the
// write) and on a reserving one under every crashShape, with a segment
// that holds the whole workload and with segments a frame or two long.
func TestAckedWritesSurviveKillAtAnyPoint(t *testing.T) {
	for _, segBytes := range []int64{1 << 16, 1 << 11} {
		cfg := Config{Dir: "wal", SegmentBytes: segBytes}
		t.Run(fmt.Sprintf("plain/seg%d", segBytes), func(t *testing.T) {
			// keep one torn byte to exercise tail truncation
			torn, whole := sweepKills(t, cfg, NewMemFS, func(fs *MemFS) { fs.Crash(1) })
			if torn == 0 || whole != 0 {
				t.Errorf("%d crashes left a torn tail, %d the whole frame: a torn write is half a write", torn, whole)
			}
		})
		for _, shape := range crashShapes {
			t.Run(fmt.Sprintf("reserving/%s/seg%d", shape.name, segBytes), func(t *testing.T) {
				torn, whole := sweepKills(t, cfg, NewReservingMemFS, func(fs *MemFS) { fs.CrashSectors(shape.keep) })
				// The sweep means nothing unless the shapes bite.
				switch shape.name {
				case "none":
					if torn != 0 || whole != 0 {
						t.Errorf("nothing unsynced survives, yet %d torn tails and %d whole frames", torn, whole)
					}
				case "all":
					if torn != 0 || whole == 0 {
						t.Errorf("everything survives, yet %d torn tails and %d whole frames", torn, whole)
					}
				default:
					if torn == 0 {
						t.Error("no crash left a torn tail")
					}
				}
			})
		}
	}
}

// sweepKills runs the kill-at-write-n workload for every n: records of 1
// to ~90 ops, so frames of one sector and of several. It returns how many
// crashes left a torn tail and how many the in-flight frame whole.
func sweepKills(t *testing.T, cfg Config, newFS func() *MemFS, crash func(*MemFS)) (tornSeen, wholeSeen int) {
	const nOps = 25
	apply := func(state map[uint64]uint64, ops []txn.RedoOp) {
		for _, op := range ops {
			if op.Kind == txn.RedoDelete {
				delete(state, op.Key)
			} else {
				state[op.Key] = op.Val
			}
		}
	}
	completed := false
	for n := 1; n < 500 && !completed; n++ {
		fs := newFS()
		fs.CrashAtWrite(n)
		cfg.FS = fs
		l, err := Open(cfg)
		if err != nil {
			// Crashed while creating the very first segment: nothing
			// acked, nothing to check.
			crash(fs)
			if state, stats := replayTest(t, fs, "wal"); len(state) != 0 || stats.Records != 0 {
				t.Fatalf("n=%d: state from nothing: %v", n, state)
			}
			continue
		}
		acked, ackedRecs := map[uint64]uint64{}, 0
		var inFlight []txn.RedoOp
		for i := uint64(0); i < nOps; i++ {
			ops := make([]txn.RedoOp, 1+i*29%90)
			for j := range ops {
				k := (i + uint64(j)) % 7
				if (i+uint64(j))%5 == 4 {
					ops[j] = del(k)
				} else {
					ops[j] = put(k, i*100+uint64(j))
				}
			}
			if err := l.Append(0, i+1, ops).Wait(); err != nil {
				inFlight = ops
				break
			}
			apply(acked, ops)
			ackedRecs++
		}
		completed = inFlight == nil
		l.Close()
		crash(fs)
		state, stats := replayTest(t, fs, "wal")

		// What the disk holds, read by the fuzz oracle rather than by
		// the parser under test.
		names, _ := fs.ReadDir("wal")
		final, _ := fs.ReadFile(path.Join("wal", names[len(names)-1]))
		_, torn, ok := frameWalk(final, true)
		if !ok {
			t.Fatalf("crash at write %d: the oracle rejects a final segment Replay accepted", n)
		}
		want := acked
		if stats.Records == ackedRecs+1 {
			// The frame in flight reached the disk whole: never acked,
			// and recovered — a crash is allowed that.
			apply(want, inFlight)
			wholeSeen++
		} else if stats.Records != ackedRecs {
			t.Fatalf("crash at write %d: %d records recovered, %d acked", n, stats.Records, ackedRecs)
		}
		if !maps.Equal(state, want) {
			t.Fatalf("crash at write %d: state=%v want=%v (%d acked records, %d recovered)", n, state, want, ackedRecs, stats.Records)
		}
		if stats.TornBytes != torn {
			t.Fatalf("crash at write %d: TornBytes = %d, the segment's torn tail is %d bytes", n, stats.TornBytes, torn)
		}
		if torn > 0 {
			tornSeen++
		}
	}
	if !completed {
		t.Fatal("sweep never ran the workload to completion; raise the bound")
	}
	return tornSeen, wholeSeen
}
