package kvserver

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"tinystm/internal/kvstore"
	"tinystm/internal/wal"
)

// durableCfg is the shared base config for durability tests: small arena,
// group acks, in-memory filesystem so "restart" and "crash" are cheap.
func durableCfg(fs *wal.MemFS) Config {
	return Config{
		SpaceWords: 1 << 18, Shards: 4, Buckets: 8,
		Snapshots:  true,
		Durability: DurabilityGroup,
		WALDir:     "wal",
		WALFS:      fs,
	}
}

func waitReady(t *testing.T, s *Server) {
	t.Helper()
	if err := s.RecoveryWait(); err != nil {
		t.Fatalf("RecoveryWait: %v", err)
	}
}

// TestRestartRecoversAckedWrites is the headline property over the HTTP
// surface: everything a durable server acked is served again by the next
// incarnation booted from the same (crashed) filesystem.
func TestRestartRecoversAckedWrites(t *testing.T) {
	fs := wal.NewMemFS()

	s1, ts1 := newTestServer(t, durableCfg(fs))
	waitReady(t, s1)
	c := ts1.Client()
	for k := 0; k < 50; k++ {
		if code := doJSON(t, c, "PUT", fmt.Sprintf("%s/kv/%d", ts1.URL, k), fmt.Sprint(k*10), nil); code != 200 {
			t.Fatalf("PUT %d: status %d", k, code)
		}
	}
	if code := doJSON(t, c, "DELETE", ts1.URL+"/kv/7", "", nil); code != 200 {
		t.Fatal("DELETE failed")
	}
	ts1.Close()
	s1.Close()

	// Kill -9: every unsynced byte vanishes. Acked responses must not.
	fs.Crash(0)

	s2, ts2 := newTestServer(t, durableCfg(fs))
	waitReady(t, s2)
	c2 := ts2.Client()
	for k := 0; k < 50; k++ {
		var got struct{ Val uint64 }
		code := doJSON(t, c2, "GET", fmt.Sprintf("%s/kv/%d", ts2.URL, k), "", &got)
		if k == 7 {
			if code != http.StatusNotFound {
				t.Fatalf("deleted key 7 came back: status %d", code)
			}
			continue
		}
		if code != 200 || got.Val != uint64(k*10) {
			t.Fatalf("GET %d after restart: status %d val %d", k, code, got.Val)
		}
	}

	// /stats must tell the recovery story.
	var st struct {
		Durability struct {
			Mode     string `json:"mode"`
			State    string `json:"state"`
			Recovery struct {
				Records uint64 `json:"records"`
			} `json:"recovery"`
		} `json:"durability"`
	}
	if code := doJSON(t, c2, "GET", ts2.URL+"/stats", "", &st); code != 200 {
		t.Fatalf("/stats: %d", code)
	}
	if st.Durability.Mode != DurabilityGroup || st.Durability.State != "ready" {
		t.Fatalf("durability stats = %+v", st.Durability)
	}
	if st.Durability.Recovery.Records == 0 {
		t.Fatal("recovery replayed zero records")
	}
}

// TestReadinessDuringRecovery pins the liveness/readiness split: while the
// WAL replays, /healthz says the process is alive, /readyz and data
// endpoints say come back later (503 + Retry-After), and /stats answers so
// an operator can watch.
func TestReadinessDuringRecovery(t *testing.T) {
	fs := wal.NewMemFS()
	gate := make(chan struct{})
	cfg := durableCfg(fs)
	cfg.recoveryGate = gate

	s, ts := newTestServer(t, cfg)
	c := ts.Client()

	if code := doJSON(t, c, "GET", ts.URL+"/healthz", "", nil); code != 200 {
		t.Fatalf("/healthz during recovery: %d", code)
	}
	resp, err := c.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during recovery: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("/readyz 503 without Retry-After")
	}
	if code := doJSON(t, c, "PUT", ts.URL+"/kv/1", "1", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("PUT during recovery: %d, want 503", code)
	}
	if code := doJSON(t, c, "GET", ts.URL+"/stats", "", nil); code != 200 {
		t.Fatalf("/stats during recovery: %d", code)
	}

	close(gate)
	waitReady(t, s)
	if code := doJSON(t, c, "GET", ts.URL+"/readyz", "", nil); code != 200 {
		t.Fatalf("/readyz after recovery: %d", code)
	}
	if code := doJSON(t, c, "PUT", ts.URL+"/kv/1", "1", nil); code != 200 {
		t.Fatalf("PUT after recovery: %d", code)
	}
}

// TestFsyncFailureDegradesToReadOnly: a log that can no longer promise
// durability must stop acking writes — stickily — while committed memory
// keeps serving reads.
func TestFsyncFailureDegradesToReadOnly(t *testing.T) {
	fs := wal.NewMemFS()
	s, ts := newTestServer(t, durableCfg(fs))
	waitReady(t, s)
	c := ts.Client()

	if code := doJSON(t, c, "PUT", ts.URL+"/kv/1", "11", nil); code != 200 {
		t.Fatalf("PUT before failure: %d", code)
	}

	fs.FailSyncAt(1) // next fsync errors, and the log failure is sticky
	if code := doJSON(t, c, "PUT", ts.URL+"/kv/2", "22", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("PUT with broken fsync: %d, want 503", code)
	}
	if st := s.State(); st != "degraded" {
		t.Fatalf("state = %q, want degraded", st)
	}
	// Sticky: later writes stay refused even though the injected failure
	// counter has passed.
	if code := doJSON(t, c, "PUT", ts.URL+"/kv/3", "33", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("PUT after degrade: %d, want 503", code)
	}
	// Reads of committed state keep working.
	var got struct{ Val uint64 }
	if code := doJSON(t, c, "GET", ts.URL+"/kv/1", "", &got); code != 200 || got.Val != 11 {
		t.Fatalf("GET while degraded: status %d val %d", code, got.Val)
	}
	resp, err := c.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while degraded: %d, want 503", resp.StatusCode)
	}
	var st struct {
		Durability struct {
			DegradedError string `json:"degraded_error"`
		} `json:"durability"`
	}
	doJSON(t, c, "GET", ts.URL+"/stats", "", &st)
	if st.Durability.DegradedError == "" {
		t.Fatal("/stats does not surface the degraded cause")
	}
}

// TestRecoveryCorruptionFailsLoudly: mid-log damage must park the server
// in stateFailed with the cause visible, never serve partial state.
func TestRecoveryCorruptionFailsLoudly(t *testing.T) {
	fs := wal.NewMemFS()

	// First incarnation writes real data.
	s1, ts1 := newTestServer(t, durableCfg(fs))
	waitReady(t, s1)
	if code := doJSON(t, ts1.Client(), "PUT", ts1.URL+"/kv/1", "1", nil); code != 200 {
		t.Fatal("seed PUT failed")
	}
	ts1.Close()
	s1.Close()

	// Vandalize a segment header: fully-present bad bytes are corruption,
	// not a torn tail.
	names, err := fs.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	seg := ""
	for _, n := range names {
		if len(n) > 4 && n[:4] == "wal-" {
			seg = n
			break
		}
	}
	if seg == "" {
		t.Fatal("no segment on disk")
	}
	data, _ := fs.ReadFile("wal/" + seg)
	data[0] ^= 0xFF
	f, _ := fs.Create("wal/" + seg)
	f.Write(data)
	f.Sync()
	f.Close()

	s2, err := New(durableCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.RecoveryWait(); err == nil {
		t.Fatal("recovery over corrupt log succeeded")
	}
	if st := s2.State(); st != "failed" {
		t.Fatalf("state = %q, want failed", st)
	}
}

// TestCheckpointTruncatesAndRestartUsesIt exercises the server-level
// checkpoint protocol end to end: Checkpoint() writes a snapshot, drops
// the sealed segments, and the NEXT boot recovers from the checkpoint.
func TestCheckpointTruncatesAndRestartUsesIt(t *testing.T) {
	fs := wal.NewMemFS()
	s1, ts1 := newTestServer(t, durableCfg(fs))
	waitReady(t, s1)
	c := ts1.Client()
	for k := 0; k < 20; k++ {
		if code := doJSON(t, c, "PUT", fmt.Sprintf("%s/kv/%d", ts1.URL, k), fmt.Sprint(k+1), nil); code != 200 {
			t.Fatalf("PUT %d failed", k)
		}
	}
	if err := s1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// More writes after the checkpoint land in the surviving log suffix.
	if code := doJSON(t, c, "PUT", ts1.URL+"/kv/100", "1000", nil); code != 200 {
		t.Fatal("post-checkpoint PUT failed")
	}
	ts1.Close()
	s1.Close()
	fs.Crash(0)

	s2, ts2 := newTestServer(t, durableCfg(fs))
	waitReady(t, s2)
	var st struct {
		Durability struct {
			Recovery struct {
				CheckpointFound bool   `json:"checkpoint_found"`
				CheckpointPairs uint64 `json:"checkpoint_pairs"`
			} `json:"recovery"`
		} `json:"durability"`
	}
	c2 := ts2.Client()
	if code := doJSON(t, c2, "GET", ts2.URL+"/stats", "", &st); code != 200 {
		t.Fatal("/stats failed")
	}
	if !st.Durability.Recovery.CheckpointFound || st.Durability.Recovery.CheckpointPairs == 0 {
		t.Fatalf("restart did not recover from the checkpoint: %+v", st.Durability.Recovery)
	}
	var got struct{ Val uint64 }
	if code := doJSON(t, c2, "GET", ts2.URL+"/kv/5", "", &got); code != 200 || got.Val != 6 {
		t.Fatalf("checkpointed key: status %d val %d", code, got.Val)
	}
	if code := doJSON(t, c2, "GET", ts2.URL+"/kv/100", "", &got); code != 200 || got.Val != 1000 {
		t.Fatalf("post-checkpoint key: status %d val %d", code, got.Val)
	}
}

// TestCheckpointLoopTruncates runs the periodic checkpointer
// (Config.CheckpointEvery) rather than calling Checkpoint by hand: while a
// writer keeps the log moving it checkpoints at least twice, and each
// checkpoint drops the segments it sealed and the checkpoint before it.
// Once the loop has stopped, the directory holds one checkpoint and one
// segment, the one the last checkpoint opened.
func TestCheckpointLoopTruncates(t *testing.T) {
	fs := wal.NewMemFS()
	cfg := durableCfg(fs)
	cfg.CheckpointEvery = 2 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, s)
	count := func() (uint64, error) {
		s.dur.mu.Lock()
		defer s.dur.mu.Unlock()
		return s.dur.ckptCount, s.dur.ckptLastErr
	}
	deadline := time.Now().Add(10 * time.Second)
	for k := uint64(0); ; k++ {
		s.Store().Put(k%32, k) // acked after durable: every Put reaches a segment
		n, err := count()
		if err != nil {
			t.Fatalf("checkpoint %d failed: %v", n+1, err)
		}
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d checkpoints in 10 s at a 2 ms period", n)
		}
	}
	s.Close() // stops the loop between checkpoints, then the log
	n, _ := count()

	names, err := fs.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	var segs, ckpts []string
	for _, name := range names {
		switch {
		case strings.HasSuffix(name, ".seg"):
			segs = append(segs, name)
		case strings.HasSuffix(name, ".ckpt"):
			ckpts = append(ckpts, name)
		}
	}
	if len(segs) != 1 || len(ckpts) != 1 {
		t.Fatalf("after %d checkpoints the log directory holds segments %v and checkpoints %v, want one of each", n, segs, ckpts)
	}
	var seg uint64
	if _, err := fmt.Sscanf(segs[0], "wal-%d.seg", &seg); err != nil || seg < n {
		t.Fatalf("surviving segment %s: the %d checkpoints each sealed one, so its index is at least %d", segs[0], n, n)
	}
}

// TestCrashDuringRecoveryIsRecoverable is the two-crash sweep. The first
// incarnation acks some writes and is killed mid-write, leaving the old
// log's last segment torn (or, on a reserving filesystem, still holding
// its reservation). The second is killed at the nth write of its boot
// sequence, for every n, and once more just after it came up. The third
// must reach ready with every acked write: recovery forgives a bad tail in
// the newest segment only, so a boot that created its fresh segment while
// the old one still existed would turn that tail into mid-log corruption
// and park every later boot in failed.
func TestCrashDuringRecoveryIsRecoverable(t *testing.T) {
	type disk struct {
		name  string
		newFS func() *wal.MemFS
		crash func(*wal.MemFS)
	}
	disks := []disk{
		{"plain/tail kept", wal.NewMemFS, func(fs *wal.MemFS) { fs.Crash(1 << 20) }},
		{"plain/tail lost", wal.NewMemFS, func(fs *wal.MemFS) { fs.Crash(0) }},
	}
	for name, keep := range map[string]func(i, n int) bool{
		"none":  func(i, n int) bool { return false },
		"all":   func(i, n int) bool { return true },
		"first": func(i, n int) bool { return i == 0 },
		"last":  func(i, n int) bool { return i == n-1 },
	} {
		disks = append(disks, disk{"reserving/" + name, wal.NewReservingMemFS,
			func(fs *wal.MemFS) { fs.CrashSectors(keep) }})
	}
	const acked = 5
	// The write the first kill catches: one frame of three sectors.
	inFlight := make([]kvstore.Op, 64)
	for i := range inFlight {
		inFlight[i] = kvstore.Op{Kind: kvstore.OpPut, Key: 1000 + uint64(i), Val: ^uint64(i)}
	}
	// boot brings a server up on fs and reports how recovery went.
	boot := func(fs *wal.MemFS) (*Server, error) {
		s, err := New(durableCfg(fs))
		if err != nil {
			t.Fatal(err)
		}
		return s, s.RecoveryWait()
	}
	for _, d := range disks {
		t.Run(d.name, func(t *testing.T) {
			for n := 1; ; n++ {
				fs := d.newFS()
				s1, err := boot(fs)
				if err != nil {
					t.Fatal(err)
				}
				for k := uint64(1); k <= acked; k++ {
					s1.store.Put(k, k*10)
				}
				fs.CrashAtWrite(1)
				func() {
					defer func() {
						var de *kvstore.DurabilityError
						if err, _ := recover().(error); !errors.As(err, &de) {
							t.Fatalf("write into a dying disk: %v, want a DurabilityError", err)
						}
					}()
					s1.store.Apply(inFlight)
				}()
				s1.Close()
				d.crash(fs)

				fs.CrashAtWrite(n)
				s2, err := boot(fs)
				s2.Close()
				d.crash(fs) // n past the boot's last write: the kill just after it came up
				s3, err3 := boot(fs)
				if err3 != nil {
					t.Fatalf("second crash at boot write %d (that boot: %v): the next one is parked in %s: %v", n, err, s3.State(), err3)
				}
				for k := uint64(1); k <= acked; k++ {
					if v, ok := s3.store.Get(k); !ok || v != k*10 {
						t.Fatalf("second crash at boot write %d: acked key %d = (%d, %v)", n, k, v, ok)
					}
				}
				// The unacked batch is there whole or not at all.
				if got := s3.store.Len(); got != acked && got != acked+uint64(len(inFlight)) {
					t.Fatalf("second crash at boot write %d: %d keys recovered", n, got)
				}
				s3.Close()
				if err == nil {
					return // the sweep has passed the end of the boot sequence
				}
			}
		})
	}
}
